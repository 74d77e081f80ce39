package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

const (
	ms = time.Millisecond
	s  = time.Second
)

func TestClockAdvances(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.After(5*ms, func() { fired = append(fired, k.Now()) })
	k.After(2*ms, func() { fired = append(fired, k.Now()) })
	k.After(9*ms, func() { fired = append(fired, k.Now()) })
	end := k.Run()
	if end != Time(9*ms) {
		t.Fatalf("end = %v, want 9ms", end)
	}
	want := []Time{Time(2 * ms), Time(5 * ms), Time(9 * ms)}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(ms, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.After(10*ms, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(Time(5*ms), func() {})
	})
	k.Run()
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var wake []Time
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * ms)
			wake = append(wake, p.Now())
		}
	})
	k.Run()
	want := []Time{Time(10 * ms), Time(20 * ms), Time(30 * ms)}
	if len(wake) != 3 {
		t.Fatalf("woke %d times, want 3", len(wake))
	}
	for i := range want {
		if wake[i] != want[i] {
			t.Errorf("wake %d at %v, want %v", i, wake[i], want[i])
		}
	}
	if k.Procs() != 0 {
		t.Errorf("Procs = %d after run, want 0", k.Procs())
	}
}

func TestSpawnAtStartsLater(t *testing.T) {
	k := NewKernel()
	var started Time
	k.SpawnAt(Time(42*ms), "late", func(p *Proc) { started = p.Now() })
	k.Run()
	if started != Time(42*ms) {
		t.Fatalf("started at %v, want 42ms", started)
	}
}

func TestMailboxFIFO(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int](k)
	var got []int
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			mb.Put(i)
			p.Sleep(ms)
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, mb.Get(p))
		}
	})
	k.Run()
	if len(got) != 5 {
		t.Fatalf("got %d values, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v, want 0..4 in order", got)
		}
	}
}

func TestMailboxBlocksUntilPut(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[string](k)
	var at Time
	k.Spawn("consumer", func(p *Proc) {
		mb.Get(p)
		at = p.Now()
	})
	k.After(30*ms, func() { mb.Put("hello") })
	k.Run()
	if at != Time(30*ms) {
		t.Fatalf("consumer resumed at %v, want 30ms", at)
	}
}

func TestMailboxMultipleWaiters(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int](k)
	got := map[string]int{}
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) { got[name] = mb.Get(p) })
	}
	k.After(ms, func() { mb.Put(1); mb.Put(2); mb.Put(3) })
	k.Run()
	if len(got) != 3 {
		t.Fatalf("got %d receivers, want 3", len(got))
	}
	// Waiters are served in park order: a, b, c.
	if got["a"] != 1 || got["b"] != 2 || got["c"] != 3 {
		t.Errorf("got = %v, want a=1 b=2 c=3", got)
	}
}

func TestFutureWaitBeforeSet(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	var v int
	var at Time
	k.Spawn("waiter", func(p *Proc) {
		v = f.Wait(p)
		at = p.Now()
	})
	k.After(7*ms, func() { f.Set(99) })
	k.Run()
	if v != 99 || at != Time(7*ms) {
		t.Fatalf("v=%d at %v, want 99 at 7ms", v, at)
	}
}

func TestFutureWaitAfterSet(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	f.Set(7)
	var v int
	k.Spawn("waiter", func(p *Proc) { v = f.Wait(p) })
	k.Run()
	if v != 7 {
		t.Fatalf("v = %d, want 7", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("double Set did not panic")
		}
	}()
	f.Set(8)
}

func TestFutureTrySet(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	if !f.TrySet(1) {
		t.Fatal("first TrySet refused")
	}
	if f.TrySet(2) {
		t.Fatal("second TrySet succeeded")
	}
	var got int
	k.Spawn("w", func(p *Proc) { got = f.Wait(p) })
	k.Run()
	if got != 1 {
		t.Fatalf("got %d, want the first value", got)
	}
}

func TestResourceSerializes(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu")
	var finish []Time
	for i := 0; i < 3; i++ {
		k.Spawn("user", func(p *Proc) {
			r.Use(p, 10*ms)
			finish = append(finish, p.Now())
		})
	}
	k.Run()
	want := []Time{Time(10 * ms), Time(20 * ms), Time(30 * ms)}
	if len(finish) != 3 {
		t.Fatalf("finished %d, want 3", len(finish))
	}
	for i := range want {
		if finish[i] != want[i] {
			t.Errorf("finish %d at %v, want %v", i, finish[i], want[i])
		}
	}
	if got := r.BusyTime(); got != 30*ms {
		t.Errorf("BusyTime = %v, want 30ms", got)
	}
	if r.Uses() != 3 {
		t.Errorf("Uses = %d, want 3", r.Uses())
	}
	if r.MaxQueueLen() != 2 {
		t.Errorf("MaxQueueLen = %d, want 2", r.MaxQueueLen())
	}
}

func TestResourceUtilization(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk")
	k.Spawn("user", func(p *Proc) {
		r.Use(p, 25*ms)
		p.Sleep(75 * ms)
	})
	k.Run()
	if u := r.Utilization(0); u < 0.249 || u > 0.251 {
		t.Fatalf("Utilization = %v, want 0.25", u)
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(100*ms, func() { fired = true })
	end := k.RunUntil(Time(50 * ms))
	if fired {
		t.Error("event beyond horizon fired")
	}
	if end != Time(50*ms) {
		t.Errorf("clock = %v, want 50ms", end)
	}
	k.Run()
	if !fired {
		t.Error("event not fired by later Run")
	}
}

func TestStopInterruptsRun(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.After(Duration(i)*ms, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("count = %d after Stop, want 3", count)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		k := NewKernel()
		r := NewResource(k, "cpu")
		mb := NewMailbox[int](k)
		var trace []Time
		for i := 0; i < 4; i++ {
			i := i
			k.Spawn("w", func(p *Proc) {
				p.Sleep(Duration(i) * ms)
				r.Use(p, 3*ms)
				mb.Put(i)
				trace = append(trace, p.Now())
			})
		}
		k.Spawn("drain", func(p *Proc) {
			for i := 0; i < 4; i++ {
				mb.Get(p)
				trace = append(trace, p.Now())
			}
		})
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// The zero Proc is a process without a kernel: it has no clock, and it
// refuses to sleep, yield or park rather than deadlock a real goroutine.
func TestZeroProcHasNoKernel(t *testing.T) {
	var nilProc *Proc
	if nilProc.Kernel() != nil {
		t.Error("a nil Proc has a kernel")
	}
	var p Proc
	if p.Kernel() != nil {
		t.Error("the zero Proc has a kernel")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on the zero Proc did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Sleep", func() { p.Sleep(ms) })
	mustPanic("Yield", p.Yield)
	k := NewKernel()
	mustPanic("Mailbox.Get", func() { NewMailbox[int](k).Get(&p) })
	mustPanic("Future.Wait", func() { NewFuture[int](k).Wait(&p) })
}

// runRecovering runs k and returns what panicked out of Run, if anything.
func runRecovering(k *Kernel) (v any) {
	defer func() { v = recover() }()
	k.Run()
	return nil
}

// A panic in a process body reaches Run's caller, not the process's own
// goroutine (which would end the binary), and Run still retires the idle
// processes on its way out.
func TestProcessPanicReachesRun(t *testing.T) {
	base := settledGoroutines(0)
	k := NewKernel()
	k.Spawn("done", func(*Proc) {})
	k.Spawn("bad", func(p *Proc) {
		p.Sleep(ms)
		panic("boom")
	})
	if v := runRecovering(k); v != "boom" {
		t.Fatalf("Run panicked with %v; want boom", v)
	}
	if len(k.idle) != 0 {
		t.Fatalf("%d idle processes kept past the panic", len(k.idle))
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after the panic; want %d", n, base)
	}
}

// A runtime.Goexit in a process body (t.FailNow in a test) ends the
// goroutine that called Run, running its deferred calls, as it would have
// ended the process's own; Run retires the idle processes on the way.
func TestProcessGoexitReachesRun(t *testing.T) {
	base := settledGoroutines(0)
	k := NewKernel()
	k.Spawn("done", func(*Proc) {})
	k.Spawn("quits", func(p *Proc) {
		p.Sleep(ms)
		runtime.Goexit()
	})
	returned, deferred := false, false
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		defer func() { deferred = recover() == nil }()
		k.Run()
		returned = true
	}()
	<-ended
	if returned || !deferred {
		t.Fatalf("Run returned %v, its caller's deferred calls ran %v; want false, true", returned, deferred)
	}
	if len(k.idle) != 0 {
		t.Fatalf("%d idle processes kept past the Goexit", len(k.idle))
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after the Goexit; want %d", n, base)
	}
}

// Parking a process the kernel is not running panics with a "sim:" message
// instead of switching away from code the kernel never switched to: from an
// event callback, or from another process's body. A later Run resumes the
// process that was parked all along.
func TestParkingAProcessTheKernelDidNotDispatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		park func(k *Kernel, q *Proc)
	}{
		{"Sleep from a callback", func(k *Kernel, q *Proc) {
			k.After(ms, func() { q.Sleep(ms) })
		}},
		{"Get from a callback", func(k *Kernel, q *Proc) {
			k.After(ms, func() { NewMailbox[int](k).Get(q) })
		}},
		{"Sleep from another process", func(k *Kernel, q *Proc) {
			k.SpawnAt(Time(ms), "other", func(*Proc) { q.Sleep(ms) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			woke := false
			q := k.Spawn("q", func(p *Proc) {
				p.Sleep(time.Hour)
				woke = true
			})
			tc.park(k, q)
			v := runRecovering(k)
			if msg, _ := v.(string); !strings.HasPrefix(msg, "sim: ") {
				t.Fatalf("Run panicked with %v; want a sim: message", v)
			}
			if k.Run(); !woke || k.Now() != Time(time.Hour) {
				t.Fatalf("q woke %v at %v; want true at 1h", woke, k.Now())
			}
		})
	}
}
