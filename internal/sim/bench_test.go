package sim

import (
	"runtime"
	"testing"
	"time"
)

// countFirer is a pre-allocated event body; Fire just counts.
type countFirer struct{ n int }

func (f *countFirer) Fire() { f.n++ }

// BenchmarkParkResume measures one Sleep round trip: schedule a future
// wake-up, park the process, switch to the kernel, advance the clock,
// dispatch back. This is the unit cost of every blocking operation in the
// simulator, so it bounds how many client operations a wall-clock second can
// carry.
func BenchmarkParkResume(b *testing.B) {
	k := NewKernel()
	k.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkMailboxSendRecv measures a request/reply round trip between two
// processes over two mailboxes: two Puts, two Gets, and the two park/resume
// switches between them — the shape of every simulated RPC hop.
func BenchmarkMailboxSendRecv(b *testing.B) {
	k := NewKernel()
	req := NewMailbox[int](k)
	rep := NewMailbox[int](k)
	k.Spawn("echo", func(p *Proc) {
		for {
			v := req.Get(p)
			if v < 0 {
				return
			}
			rep.Put(v)
		}
	})
	k.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			req.Put(i)
			rep.Get(p)
		}
		req.Put(-1)
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkScheduleDrain measures the bucketed timetable: bursts of events
// scheduled at one future instant, then drained. A burst pays one heap
// operation for the instant, not one per event, and recycled bucket slices
// keep steady-state scheduling allocation-free.
func BenchmarkScheduleDrain(b *testing.B) {
	const burst = 64
	k := NewKernel()
	f := &countFirer{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		t := k.Now().Add(1)
		for j := 0; j < burst; j++ {
			k.AtFire(t, f)
		}
		k.Run()
	}
}

// TestMailboxPutGetZeroAlloc pins the mailbox hot path: once the ring is
// warm, Put and Get recycle the same backing array and allocate nothing.
func TestMailboxPutGetZeroAlloc(t *testing.T) {
	k := NewKernel()
	m := NewMailbox[int](k)
	m.Put(0)
	m.TryGet() // warm the ring
	if a := testing.AllocsPerRun(100, func() {
		m.Put(7)
		m.TryGet()
	}); a != 0 {
		t.Fatalf("mailbox put/get allocates %v per op; want 0", a)
	}
}

// TestScheduleDrainZeroAlloc pins the timetable's steady state end to end:
// scheduling a burst at a fresh future instant and draining it reuses the
// recycled bucket slice and the times heap's backing array, allocating
// nothing per round.
func TestScheduleDrainZeroAlloc(t *testing.T) {
	const burst = 64
	k := NewKernel()
	f := &countFirer{}
	round := func() {
		at := k.Now().Add(1)
		for j := 0; j < burst; j++ {
			k.AtFire(at, f)
		}
		k.Run()
	}
	round() // warm: grow the bucket slice, heap and free pool
	round()
	if a := testing.AllocsPerRun(50, round); a != 0 {
		t.Fatalf("schedule+drain round allocates %v; want 0", a)
	}
	if f.n == 0 {
		t.Fatal("no events fired")
	}
}

// TestAtFireSameInstantZeroAlloc pins the same-instant fast path: an event
// scheduled for the current instant appends straight to the live run queue —
// no heap push, no bucket lookup, no allocation. The run queue is pre-grown
// first so amortized slice growth (a capacity cost, not a per-event one)
// doesn't obscure the gate.
func TestAtFireSameInstantZeroAlloc(t *testing.T) {
	k := NewKernel()
	f := &countFirer{}
	var allocs float64
	k.At(1, func() {
		const runs = 100
		if need := len(k.curr) + runs + 2; cap(k.curr) < need {
			grown := make([]event, len(k.curr), 2*need)
			copy(grown, k.curr)
			k.curr = grown
		}
		allocs = testing.AllocsPerRun(runs, func() { k.AtFire(k.Now(), f) })
	})
	k.Run()
	if allocs != 0 {
		t.Fatalf("same-instant AtFire allocates %v; want 0", allocs)
	}
	if f.n != 101 {
		t.Fatalf("fired %d events; want 101", f.n)
	}
}

// TestProcExitStress spawns a large population of short-lived processes —
// the simulator's per-call worker pattern at scale — and requires every one
// to exit and unregister. Run under -race in CI, it also exercises the
// kernel/proc channel handoff for data races at high churn.
func TestProcExitStress(t *testing.T) {
	const procs = 5000
	k := NewKernel()
	m := NewMailbox[int](k)
	var got int
	for i := 0; i < procs; i++ {
		i := i
		k.SpawnAt(Time(i%17), "stress", func(p *Proc) {
			p.Sleep(Duration(i % 5))
			m.Put(i)
			p.Yield()
		})
	}
	k.Spawn("drain", func(p *Proc) {
		for j := 0; j < procs; j++ {
			m.Get(p)
			got++
		}
	})
	k.Run()
	if got != procs {
		t.Fatalf("drained %d messages; want %d", got, procs)
	}
	if n := k.Procs(); n != 0 {
		t.Fatalf("%d processes still live after Run; want 0", n)
	}
}

// TestSpawnReusesAnIdleProcess pins the worker pattern's steady state: a
// process spawned after another has finished runs on the finished one's Proc
// and goroutine, and the Spawn allocates nothing.
func TestSpawnReusesAnIdleProcess(t *testing.T) {
	const runs = 100
	k := NewKernel()
	served := 0
	body := func(*Proc) { served++ }
	var first, last *Proc
	allocs := -1.0
	k.Spawn("spawner", func(p *Proc) {
		first = k.Spawn("worker", body)
		p.Sleep(1)
		allocs = testing.AllocsPerRun(runs, func() {
			last = k.Spawn("worker", body)
			p.Sleep(1)
		})
	})
	k.Run()
	if allocs != 0 {
		t.Fatalf("a Spawn that reuses an idle process allocates %v; want 0", allocs)
	}
	if last != first {
		t.Fatal("the last worker ran on a new process, not the idle one")
	}
	if served != runs+2 {
		t.Fatalf("workers ran %d times; want %d", served, runs+2)
	}
}

// spawnAllocs is what starting a process afresh costs: its Proc, and its
// coroutine (the variables iter.Pull's closures share, the closures, the
// runtime's coroutine and the method value it runs). The coroutine's
// goroutine is one that an earlier stop ended, so it costs no object.
const spawnAllocs = 13

// TestSpawnAllocs pins a fresh start. Each Spawn here lands in a recycled
// bucket, and each Run retires the process it leaves idle, so every Spawn
// starts a new process and nothing else allocates.
func TestSpawnAllocs(t *testing.T) {
	k := NewKernel()
	body := func(*Proc) {}
	got := testing.AllocsPerRun(100, func() {
		k.SpawnAt(k.Now().Add(1), "worker", body)
		k.Run()
	})
	if got > spawnAllocs {
		t.Fatalf("a fresh Spawn and its run allocate %v, pinned at %d", got, spawnAllocs)
	}
	if k.Procs() != 0 || len(k.idle) != 0 {
		t.Fatalf("%d live, %d idle after the runs; want none", k.Procs(), len(k.idle))
	}
}

// TestNoIdleProcessOutlivesItsRun: processes that finish wait on the idle
// list while the run lasts, uncounted by Procs, and Run and RunUntil end
// them on every way out, Stop and the horizon included, with events and a
// parked process left for a later run.
func TestNoIdleProcessOutlivesItsRun(t *testing.T) {
	const workers = 8
	for _, tc := range []struct {
		name string
		run  func(k *Kernel)
	}{
		{"Run", func(k *Kernel) { k.Run() }},
		{"RunUntil", func(k *Kernel) { k.RunUntil(Time(time.Second)) }},
		{"Stop", func(k *Kernel) {
			k.After(time.Second, k.Stop)
			k.Run()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := settledGoroutines(0) // an earlier test's may still be ending
			k := NewKernel()
			for i := range workers {
				k.Spawn("worker", func(p *Proc) { p.Sleep(Duration(i)) })
			}
			idle, live := 0, 0
			k.After(time.Millisecond, func() { idle, live = len(k.idle), k.Procs() })
			if tc.name != "Run" {
				// Still queued when the run returns: a parked process and
				// an event past the horizon or the stop.
				k.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
			}
			tc.run(k)
			if idle != workers || (tc.name == "Run" && live != 0) {
				t.Fatalf("mid-run: %d idle, %d live; want %d idle, none live but the sleeper", idle, live, workers)
			}
			if len(k.idle) != 0 {
				t.Fatalf("%d idle processes kept past the run", len(k.idle))
			}
			want := base
			if tc.name != "Run" {
				want++ // the sleeper, parked
			}
			if n := settledGoroutines(want); n > want {
				t.Fatalf("%d goroutines after the run; want %d", n, want)
			}
			if tc.name != "Run" {
				k.Run()
				if n := settledGoroutines(base); n > base || k.Procs() != 0 {
					t.Fatalf("after draining: %d goroutines, %d live; want %d, 0", n, k.Procs(), base)
				}
			}
		})
	}
}

// settledGoroutines yields until at most want goroutines are live, or long
// enough that one that has not ended will not, and returns the count: a
// retired process's goroutine ends when it is next scheduled.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 10000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}
