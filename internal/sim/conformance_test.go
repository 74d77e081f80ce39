package sim

// Kernel conformance suite. These tests pin the scheduling semantics every
// experiment and determinism test depends on, written against the kernel
// BEFORE the scale refactor so the refactored kernel diffs green against
// them. Everything here is observable behavior — ordering, virtual
// timestamps, wake order — never internals, so the suite survives any
// re-implementation of the event queue.

import (
	"fmt"
	"testing"
	"time"
)

// TestConformanceSameInstantFIFO: events scheduled for the same virtual
// instant fire in scheduling order, even when scheduled from different
// contexts (kernel callbacks and processes) and interleaved with events at
// other instants.
func TestConformanceSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	var order []string
	note := func(s string) func() {
		return func() { order = append(order, fmt.Sprintf("%s@%v", s, k.Now())) }
	}
	k.After(2*ms, note("c"))
	k.After(ms, note("a1"))
	k.After(ms, note("a2"))
	k.After(2*ms, note("d"))
	k.After(ms, note("a3"))
	k.Run()
	want := []string{"a1@1ms", "a2@1ms", "a3@1ms", "c@2ms", "d@2ms"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestConformanceNowScheduledRunsAfterQueued: an event scheduled at the
// current instant from inside a firing event runs after every event already
// queued at that instant (later schedule = later sequence), but before any
// event at a later time.
func TestConformanceNowScheduledRunsAfterQueued(t *testing.T) {
	k := NewKernel()
	var order []string
	k.After(ms, func() {
		order = append(order, "first")
		// Scheduled mid-drain at the same instant: must follow "second".
		k.After(0, func() { order = append(order, "injected") })
	})
	k.After(ms, func() { order = append(order, "second") })
	k.After(ms+1, func() { order = append(order, "later") })
	k.Run()
	want := "[first second injected later]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestConformanceNestedSameInstantChain: a chain of After(0) events all
// fire at one virtual instant, in creation order, to arbitrary depth.
func TestConformanceNestedSameInstantChain(t *testing.T) {
	k := NewKernel()
	var n int
	var chain func()
	chain = func() {
		n++
		if n < 100 {
			k.After(0, chain)
		}
	}
	k.After(5*ms, chain)
	end := k.Run()
	if n != 100 {
		t.Fatalf("chain fired %d times, want 100", n)
	}
	if end != Time(5*ms) {
		t.Fatalf("clock = %v, want 5ms (After(0) must not advance time)", end)
	}
}

// TestConformanceSleepZeroYields: Sleep(0) reschedules the process
// after all events already queued at the present instant.
func TestConformanceSleepZeroYields(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("yielder", func(p *Proc) {
		order = append(order, "before-yield")
		p.Sleep(0)
		order = append(order, "after-yield")
	})
	k.Spawn("other", func(p *Proc) {
		order = append(order, "other")
	})
	k.Run()
	want := "[before-yield other after-yield]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestConformanceSpawnOrdering: Spawn schedules the process body like any
// other event at the current instant — processes start in spawn order,
// interleaved FIFO with plain events scheduled around them.
func TestConformanceSpawnOrdering(t *testing.T) {
	k := NewKernel()
	var order []string
	k.After(0, func() { order = append(order, "e1") })
	k.Spawn("p1", func(p *Proc) { order = append(order, "p1") })
	k.After(0, func() { order = append(order, "e2") })
	k.Spawn("p2", func(p *Proc) { order = append(order, "p2") })
	k.Run()
	want := "[e1 p1 e2 p2]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestConformanceMailboxFIFOPerSender: values from one producer arrive in
// put order; with two producers alternating at distinct instants, the
// merged stream preserves each sender's order and global time order.
func TestConformanceMailboxFIFOPerSender(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[string](k)
	var got []string
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			mb.Put(fmt.Sprintf("a%d", i))
			p.Sleep(2 * ms)
		}
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(ms)
		for i := 0; i < 3; i++ {
			mb.Put(fmt.Sprintf("b%d", i))
			p.Sleep(2 * ms)
		}
	})
	k.Spawn("rx", func(p *Proc) {
		for i := 0; i < 6; i++ {
			got = append(got, mb.Get(p))
		}
	})
	k.Run()
	want := "[a0 b0 a1 b1 a2 b2]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got = %v, want %v", got, want)
	}
}

// TestConformanceMailboxWaitersWakeInParkOrder: multiple blocked receivers
// are served strictly in the order they parked.
func TestConformanceMailboxWaitersWakeInParkOrder(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int](k)
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			v := mb.Get(p)
			order = append(order, fmt.Sprintf("%s=%d", name, v))
		})
	}
	k.After(ms, func() { mb.Put(10); mb.Put(20); mb.Put(30) })
	k.Run()
	want := "[w1=10 w2=20 w3=30]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestConformanceMailboxTryGetNeverWakes: TryGet drains without parking and
// never consumes a queued wake belonging to a parked receiver.
func TestConformanceMailboxTryGetNeverWakes(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int](k)
	if _, ok := mb.TryGet(); ok {
		t.Fatal("TryGet on empty mailbox returned a value")
	}
	mb.Put(1)
	if v, ok := mb.TryGet(); !ok || v != 1 {
		t.Fatalf("TryGet = %d,%v; want 1,true", v, ok)
	}
	if mb.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", mb.Len())
	}
}

// TestConformanceResourceGrantOrder: contending processes acquire a
// resource in arrival order, each hold starting the instant the previous
// one ends, with exact busy accounting.
func TestConformanceResourceGrantOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu")
	var order []string
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * time.Microsecond) // arrival order = spawn order
			r.Use(p, 5*ms)
			order = append(order, fmt.Sprintf("u%d@%v", i, p.Now()))
		})
	}
	k.Run()
	// Arrivals all precede the first completion, so holds run back to back:
	// each waiter wakes exactly when its predecessor's hold ends.
	want := fmt.Sprint([]string{"u0@5ms", "u1@10ms", "u2@15ms", "u3@20ms"})
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if bt := r.BusyTime(); bt != 20*ms {
		t.Fatalf("BusyTime = %v, want 20ms", bt)
	}
}

// TestConformanceResourceZeroHold: a zero-duration Use still queues behind
// earlier holders and completes at the predecessor's finish instant.
func TestConformanceResourceZeroHold(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu")
	var at Time
	k.Spawn("long", func(p *Proc) { r.Use(p, 10*ms) })
	k.Spawn("zero", func(p *Proc) {
		p.Sleep(ms) // arrive second
		r.Use(p, 0)
		at = p.Now()
	})
	k.Run()
	if at != Time(10*ms) {
		t.Fatalf("zero-hold completed at %v, want 10ms (after the long hold)", at)
	}
}

// TestConformanceStopWhileParked: Stop interrupts Run with processes still
// parked; their state is preserved and a later Run resumes them exactly
// where they would have woken.
func TestConformanceStopWhileParked(t *testing.T) {
	k := NewKernel()
	var woke []Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * ms)
		woke = append(woke, p.Now())
		p.Sleep(10 * ms)
		woke = append(woke, p.Now())
	})
	k.After(ms, func() { k.Stop() })
	k.Run()
	if len(woke) != 0 {
		t.Fatalf("woke %d times under Stop, want 0", len(woke))
	}
	if k.nprocs != 1 {
		t.Fatalf("%d live processes while parked, want 1", k.nprocs)
	}
	k.Run()
	if fmt.Sprint(woke) != fmt.Sprint([]Time{Time(10 * ms), Time(20 * ms)}) {
		t.Fatalf("woke = %v, want [10ms 20ms]", woke)
	}
	if k.nprocs != 0 {
		t.Fatalf("%d live processes after drain, want 0", k.nprocs)
	}
}

// TestConformanceStopLeavesSameInstantEventsQueued: Stop takes effect after
// the current event; remaining events at the same instant stay queued, in
// order, for the next Run.
func TestConformanceStopLeavesSameInstantEventsQueued(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.After(ms, func() {
			order = append(order, i)
			if i == 1 {
				k.Stop()
			}
		})
	}
	k.Run()
	if fmt.Sprint(order) != "[0 1]" {
		t.Fatalf("order after Stop = %v, want [0 1]", order)
	}
	k.Run()
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("order after resume = %v, want [0 1 2 3 4]", order)
	}
}

// TestConformanceRunUntilBoundaryInclusive: RunUntil(t) fires events at
// exactly t, leaves events after t queued, and parks the clock at t even
// when the queue still holds later work.
func TestConformanceRunUntilBoundaryInclusive(t *testing.T) {
	k := NewKernel()
	var fired []string
	k.After(5*ms, func() { fired = append(fired, "at5") })
	k.After(5*ms+1, func() { fired = append(fired, "past") })
	end := k.RunUntil(Time(5 * ms))
	if fmt.Sprint(fired) != "[at5]" {
		t.Fatalf("fired = %v, want [at5]", fired)
	}
	if end != Time(5*ms) {
		t.Fatalf("clock = %v, want 5ms", end)
	}
	k.Run()
	if fmt.Sprint(fired) != "[at5 past]" {
		t.Fatalf("fired = %v after drain, want [at5 past]", fired)
	}
}

// TestConformanceRunUntilAdvancesIdleClock: RunUntil moves the clock to the
// horizon even with nothing scheduled, and never backward.
func TestConformanceRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel()
	if end := k.RunUntil(Time(time.Hour)); end != Time(time.Hour) {
		t.Fatalf("clock = %v, want 1h", end)
	}
	if end := k.RunUntil(Time(time.Minute)); end != Time(time.Hour) {
		t.Fatalf("clock = %v after past horizon, want to stay at 1h", end)
	}
}

// TestConformanceFutureWakesAllWaitersInOrder: Set wakes every waiter, in
// park order, at the set instant.
func TestConformanceFutureWakesAllWaitersInOrder(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			v := f.Wait(p)
			order = append(order, fmt.Sprintf("%s=%d@%v", name, v, p.Now()))
		})
	}
	k.After(3*ms, func() { f.Set(7) })
	k.Run()
	want := "[w1=7@3ms w2=7@3ms w3=7@3ms]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestConformanceInterleavedTimersAndProcs: a dense braid of timers,
// process sleeps, mailbox handoffs and resource holds replays to an
// identical event trace — the fingerprint-level property the experiment
// suite depends on, in miniature.
func TestConformanceInterleavedTimersAndProcs(t *testing.T) {
	run := func() string {
		k := NewKernel()
		r := NewResource(k, "dev")
		mb := NewMailbox[string](k)
		var log []string
		note := func(tag string) { log = append(log, fmt.Sprintf("%s@%v", tag, k.Now())) }
		for i := 0; i < 3; i++ {
			i := i
			k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Sleep(Duration(i) * ms)
				r.Use(p, 2*ms)
				note(fmt.Sprintf("used%d", i))
				mb.Put(fmt.Sprintf("m%d", i))
			})
		}
		k.Spawn("rx", func(p *Proc) {
			for i := 0; i < 3; i++ {
				note("got:" + mb.Get(p))
			}
		})
		for i := 1; i <= 4; i++ {
			i := i
			k.After(Duration(i)*ms, func() { note(fmt.Sprintf("t%d", i)) })
		}
		k.Run()
		return fmt.Sprint(log)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay diverged:\n%s\n%s", a, b)
	}
	// Pinned from the pre-refactor kernel: plain timers scheduled before the
	// run carry lower sequence numbers than the resource-completion and
	// mailbox wake events created while running, so at a shared instant
	// (2ms, 4ms) the timer fires first.
	want := "[t1@1ms t2@2ms used0@2ms got:m0@2ms t3@3ms t4@4ms used1@4ms got:m1@4ms used2@6ms got:m2@6ms]"
	if a != want {
		t.Fatalf("trace = %s\nwant    %s", a, want)
	}
}
