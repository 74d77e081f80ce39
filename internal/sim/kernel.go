//go:build go1.23

// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// A Kernel advances a virtual clock over a timetable of events. Processes
// are coroutines (iter.Pull) that run one at a time under kernel control: a
// process runs until it parks (Sleep, mailbox receive, resource acquisition,
// future wait), at which point it yields to the kernel, which fires the next
// event. Events at equal times fire in scheduling order, so every run of a
// simulation is exactly reproducible. A switch between the kernel and a
// process is the runtime's coroutine switch on one thread, not a hand-off
// through the Go scheduler: nothing wakes a second thread for it.
//
// The one-runnable-at-a-time discipline means simulation state shared
// between processes needs no locking, provided a process never parks in the
// middle of a critical section. Code that is also used outside the simulator
// (for example the Vice server logic, which serves real TCP clients too)
// keeps its ordinary mutexes; the rule there is only that a lock is never
// held across a park point.
//
// # What a process must not do
//
// A process runs on a goroutine of its own, but only while the kernel waits
// for it, and nothing else in the simulation runs until it parks. So:
//
//   - It must not block on a real channel, or hold a mutex, across a park.
//     Whatever it waits for cannot come from another process, which runs
//     only after this one parks, and a mutex it holds stops the next process
//     that asks for it: either way the run hangs (the runtime reports a
//     deadlock if no goroutine outside the simulation is left to run).
//   - It parks only itself, from its own body. Sleep, Mailbox.Get,
//     Future.Wait or Resource.Use on a process the kernel is not running at
//     that moment (from an At or After callback, or from another process's
//     body) panics with a "sim:" message.
//   - It must not park from a goroutine it started. That is not detected:
//     the switch appears to work, but the goroutine then stands in for the
//     process while the process's own code runs beside it, outside the
//     one-at-a-time rule, and its state races.
//
// A panic in a process body reaches the caller of Kernel.Run or RunUntil,
// on that caller's goroutine, and so does a runtime.Goexit: a test's
// t.FailNow inside a process ends the test where it runs its kernel.
//
// # Scheduling internals
//
// The kernel is sized for tens of thousands of simulated processes, so the
// event queue is organized to make the common operations allocation-free:
//
//   - Events at the same virtual instant live in one bucket slice and are
//     drained in FIFO order by a cursor, with no per-event heap traffic; the
//     binary heap orders only the *distinct* pending instants. A burst of N
//     same-instant callbacks costs one heap operation, not N.
//   - An event is a 4-word value, not a pointer: scheduling appends to a
//     recycled bucket slice and allocates nothing in steady state.
//   - Process wake-ups (Sleep, mailbox, future, resource) are stored as the
//     *Proc itself rather than a closure; pooled consumer objects (netsim
//     frames, resource grants) schedule themselves via the Firer interface.
//     Only ad-hoc At/After callbacks pay for a closure.
//   - A process that finishes keeps its coroutine and its Proc on an idle
//     list, and the next Spawn takes one from there instead of starting a
//     coroutine: a population of short-lived processes (a server's per-call
//     workers) costs what its peak concurrency costs, once. Idle processes
//     end when Run or RunUntil returns, so no goroutine outlives its run.
package sim

import (
	"fmt"
	"iter"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation.
type Time time.Duration

// Duration re-exports time.Duration for virtual intervals.
type Duration = time.Duration

// String formats the virtual time as a duration offset.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds reports the virtual time in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the interval t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Firer is an event body that schedules without allocating: anything with a
// Fire method can be passed to AtFire/AfterFire, so pooled objects (netsim
// frames, resource grants) carry their own callback state instead of a
// fresh closure per event.
type Firer interface{ Fire() }

// event is one scheduled callback. Exactly one of p, ps, fr, fn is set; they
// are checked in that order (process wake-ups dominate at scale). Events
// carry no timestamp: an event's instant is the bucket it lives in.
type event struct {
	p  *Proc  // wake this parked process
	ps *Proc  // start this not-yet-running process (its fn field holds the body)
	fr Firer  // pre-allocated event body
	fn func() // ad-hoc callback
}

// Kernel is a discrete-event simulation executive. The zero value is not
// usable; create one with NewKernel.
type Kernel struct {
	now Time

	// curr holds the events of the instant currently being drained (always
	// at virtual time now); curr[cursor:] are still to fire. Scheduling at
	// the current instant appends here, which preserves the global
	// schedule-order FIFO among same-instant events. times is a min-heap of
	// the distinct future instants, and buckets holds their event slices;
	// free recycles drained bucket slices.
	curr    []event
	cursor  int
	times   []Time
	buckets map[Time][]event
	free    [][]event

	running *Proc // the process the kernel dispatched, until it parks
	stopped bool
	nprocs  int     // live (spawned, not yet finished) processes
	idle    []*Proc // finished processes, their coroutines waiting for a body
}

// maxFreeBuckets bounds the recycled-slice pool; beyond it, drained bucket
// slices are dropped for the GC. The pool only needs to cover the working
// set of distinct pending instants.
const maxFreeBuckets = 64

// NewKernel returns a kernel with an empty event queue and the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{buckets: make(map[Time][]event)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run in kernel context at virtual time t. Scheduling in
// the past (t < Now) panics: it would silently reorder causality.
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, event{fn: fn}) }

// After schedules fn to run d from now.
func (k *Kernel) After(d Duration, fn func()) { k.schedule(k.now.Add(d), event{fn: fn}) }

// AtFire schedules f.Fire to run in kernel context at virtual time t,
// without allocating: f carries its own state.
func (k *Kernel) AtFire(t Time, f Firer) { k.schedule(t, event{fr: f}) }

// AfterFire schedules f.Fire to run d from now.
func (k *Kernel) AfterFire(d Duration, f Firer) { k.schedule(k.now.Add(d), event{fr: f}) }

// wakeAt schedules parked process p to resume at virtual time t.
func (k *Kernel) wakeAt(t Time, p *Proc) { k.schedule(t, event{p: p}) }

// schedule enqueues e at instant t, preserving the invariant that events at
// one instant fire in scheduling order: the current instant's events append
// to the live run queue, future instants append to their bucket. A run
// queue with nothing left to fire starts again at its front, so a chain of
// same-instant wake-ups reuses its slots instead of growing the queue.
func (k *Kernel) schedule(t Time, e event) {
	if t <= k.now {
		if t == k.now {
			if k.cursor == len(k.curr) {
				k.curr, k.cursor = k.curr[:0], 0
			}
			k.curr = append(k.curr, e)
			return
		}
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, k.now))
	}
	b, ok := k.buckets[t]
	if !ok {
		k.pushTime(t)
		if n := len(k.free); n > 0 {
			b = k.free[n-1]
			k.free[n-1] = nil
			k.free = k.free[:n-1]
		}
	}
	k.buckets[t] = append(b, e)
}

// pushTime adds a distinct instant to the time heap (sift-up; hand-rolled to
// keep Time values out of interface boxes).
func (k *Kernel) pushTime(t Time) {
	h := append(k.times, t)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	k.times = h
}

// popTime removes and returns the earliest pending instant (sift-down).
func (k *Kernel) popTime() Time {
	h := k.times
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && h[r] < h[l] {
			min = r
		}
		if h[i] <= h[min] {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	k.times = h
	return top
}

// fire runs one event body.
func (k *Kernel) fire(e event) {
	switch {
	case e.p != nil:
		k.dispatch(e.p)
	case e.ps != nil:
		e.ps.next, e.ps.stop = iter.Pull(e.ps.run)
		k.dispatch(e.ps)
	case e.fr != nil:
		e.fr.Fire()
	default:
		e.fn()
	}
}

// drained recycles the exhausted run queue. Every fired slot was already
// zeroed, so the slice can be reused without pinning dead closures.
func (k *Kernel) drained() {
	if cap(k.curr) > 0 && len(k.free) < maxFreeBuckets {
		k.free = append(k.free, k.curr[:0])
	}
	k.curr = nil
	k.cursor = 0
}

// advance installs the earliest pending bucket as the run queue and moves
// the clock to its instant. The caller has drained curr.
func (k *Kernel) advance() {
	t := k.popTime()
	k.now = t
	k.curr = k.buckets[t]
	k.cursor = 0
	delete(k.buckets, t)
}

// Stop makes Run return after the current event completes. Pending events
// remain queued; Run may be called again to continue.
func (k *Kernel) Stop() { k.stopped = true }

// retire ends the coroutines of the idle processes. Run and RunUntil call it
// on their way out, a panic's included, so a run leaves no goroutine behind
// but the parked processes' that a later run resumes.
func (k *Kernel) retire() {
	k.running = nil
	for i, p := range k.idle {
		p.stop()
		k.idle[i] = nil
	}
	k.idle = k.idle[:0]
}

// Run fires events in time order until the queue is empty or Stop is called.
// It returns the virtual time at which it stopped.
func (k *Kernel) Run() Time {
	defer k.retire()
	k.stopped = false
	for !k.stopped {
		if k.cursor < len(k.curr) {
			e := k.curr[k.cursor]
			k.curr[k.cursor] = event{}
			k.cursor++
			k.fire(e)
			continue
		}
		k.drained()
		if len(k.times) == 0 {
			break
		}
		k.advance()
	}
	return k.now
}

// RunUntil fires events until virtual time t (inclusive of events at t),
// the queue empties, or Stop is called. The clock is left at t if the run
// reached it.
func (k *Kernel) RunUntil(t Time) Time {
	defer k.retire()
	k.stopped = false
	for !k.stopped && k.now <= t {
		if k.cursor < len(k.curr) {
			e := k.curr[k.cursor]
			k.curr[k.cursor] = event{}
			k.cursor++
			k.fire(e)
			continue
		}
		k.drained()
		if len(k.times) == 0 || k.times[0] > t {
			break
		}
		k.advance()
	}
	if !k.stopped && k.now < t {
		k.now = t
	}
	return k.now
}

// Proc is a simulated process: a coroutine scheduled by the kernel. All Proc
// methods must be called from the process's own body.
//
// The zero Proc is a process without a kernel: a real caller's or a real
// server worker's, on an ordinary goroutine that owns it. Its Trace slot
// works, so spans nest under it as under a simulated process; it has no
// virtual clock (Kernel returns nil), and Sleep and every park on it
// panic. Code that runs in both regimes reads its time and waits through
// rpc.Clock and rpc.Sleep, which take wall time for such a process.
type Proc struct {
	k    *Kernel
	name string
	fn   func(p *Proc) // body, until the process starts

	// The process's coroutine: next resumes it from the kernel, yield
	// parks it back, stop ends it while it is idle.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// Trace is proc-local storage for the ambient trace span of whatever
	// operation the process is currently executing (see internal/trace).
	// The kernel itself never reads or writes it. It is safe without
	// locking because only the owning process touches it: simulated
	// processes run one at a time, and a process without a kernel belongs
	// to one goroutine.
	Trace any
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel: nil for a nil Proc and for the zero one,
// which have no virtual clock.
func (p *Proc) Kernel() *Kernel {
	if p == nil {
		return nil
	}
	return p.k
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process running fn, starting at the current virtual time
// (after already-queued events at that time).
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt creates a process running fn, starting at virtual time t. A
// finished process on the idle list is reused, coroutine and all, and its
// start is a wake-up where a new process's start would go: which one runs fn
// changes no event's order. The returned Proc is fn's until fn returns.
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	k.nprocs++
	if n := len(k.idle); n > 0 {
		p := k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
		p.name, p.fn = name, fn
		k.schedule(t, event{p: p})
		return p
	}
	p := &Proc{k: k, name: name, fn: fn}
	k.schedule(t, event{ps: p})
	return p
}

// run is the body of a process coroutine: run the spawned function, then
// join the idle list and yield to the kernel, until retire stops an idle
// process.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	k := p.k
	for {
		fn := p.fn
		p.fn = nil
		fn(p)
		p.Trace = nil
		k.nprocs--
		k.idle = append(k.idle, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// dispatch switches to p and returns when it parks or finishes. Must be
// called from kernel context.
func (k *Kernel) dispatch(p *Proc) {
	k.running = p
	p.next()
	k.running = nil
}

// park suspends the calling process and returns control to the kernel. The
// process resumes when some event calls k.dispatch(p).
func (p *Proc) park() {
	p.mustBeRunning()
	p.yield(struct{}{})
}

// mustBeRunning panics unless p is the process its kernel dispatched: a
// process without a kernel has nothing to park on, and parking any other
// (from an event callback, say) would switch away from code the kernel
// never switched to.
func (p *Proc) mustBeRunning() {
	if p.k == nil {
		panic("sim: a process without a kernel cannot sleep or park")
	}
	if p.k.running != p {
		panic("sim: process " + p.name + " parked while the kernel was not running it")
	}
}

// Sleep suspends the process for virtual duration d. Sleep(0) yields: the
// process resumes after every event already queued at the present instant.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.mustBeRunning() // before the wake-up is queued
	p.k.wakeAt(p.k.now.Add(d), p)
	p.yield(struct{}{})
}
