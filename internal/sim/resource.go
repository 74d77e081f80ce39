package sim

// Resource models a serially-shared device (a server CPU, a disk arm, a
// network link) with a FIFO queue. Use acquires the resource, holds it for a
// virtual duration, and releases it; contending processes queue in arrival
// order. The resource accounts its cumulative busy time so callers can
// compute utilization over any observation interval.
type Resource struct {
	k    *Kernel
	name string

	busy    bool
	queue   []grant // head-indexed ring of waiters, in arrival order
	qhead   int
	serving grant // valid while busy

	busyTime  Duration // cumulative time spent busy
	busySince Time     // valid when busy
	uses      int64
}

// grant is one process's claim on the resource. Grants are values, queued in
// place: acquiring a contended resource allocates nothing once the ring is
// warm, and the hold-completion event is the Resource itself (via Fire), not
// a closure.
type grant struct {
	p    *Proc
	hold Duration
}

// NewResource returns an idle resource on kernel k.
func NewResource(k *Kernel, name string) *Resource {
	return &Resource{k: k, name: name}
}

// Name returns the name given at creation.
func (r *Resource) Name() string { return r.name }

// Kernel returns the owning kernel.
func (r *Resource) Kernel() *Kernel { return r.k }

// Use blocks the calling process until the resource is free, holds it for d,
// then releases it. A zero d acquires and releases immediately (still
// queueing behind earlier holders).
func (r *Resource) Use(p *Proc, d Duration) {
	if d < 0 {
		panic("sim: negative hold time")
	}
	if r.busy {
		if r.qhead == len(r.queue) {
			r.queue = r.queue[:0]
			r.qhead = 0
		}
		r.queue = append(r.queue, grant{p: p, hold: d})
		p.park() // woken by release when it is our turn
	}
	r.start(grant{p: p, hold: d})
	p.park() // woken when the hold completes
}

// start begins serving g. The caller (Use, or Fire) has established that
// the resource is free.
func (r *Resource) start(g grant) {
	r.busy = true
	r.serving = g
	r.busySince = r.k.now
	r.uses++
	r.k.AfterFire(g.hold, r)
}

// Fire completes the current hold: account busy time, hand the resource to
// the next queued waiter (whose service begins at this instant), then wake
// the finished holder. It implements Firer so a hold completion schedules
// without allocating.
func (r *Resource) Fire() {
	r.busyTime += Duration(r.k.now - r.busySince)
	r.busy = false
	done := r.serving.p
	r.serving = grant{}
	if r.qhead < len(r.queue) {
		next := r.queue[r.qhead]
		r.queue[r.qhead] = grant{}
		r.qhead++
		if r.qhead == len(r.queue) {
			r.queue = r.queue[:0]
			r.qhead = 0
		}
		// Wake the next holder first so its service begins at this
		// instant; it calls start from its own body via Use.
		r.k.dispatch(next.p)
	}
	r.k.dispatch(done)
}

// BusyTime returns the cumulative virtual time the resource has been busy,
// including the in-progress portion of a current hold.
func (r *Resource) BusyTime() Duration {
	bt := r.busyTime
	if r.busy {
		bt += Duration(r.k.now - r.busySince)
	}
	return bt
}

// Uses returns the number of completed or in-progress holds.
func (r *Resource) Uses() int64 { return r.uses }

// QueueLen returns the number of processes currently waiting.
func (r *Resource) QueueLen() int { return len(r.queue) - r.qhead }

// Utilization returns BusyTime divided by the elapsed interval since a
// reference time (typically the start of an observation window).
func (r *Resource) Utilization(since Time) float64 {
	elapsed := Duration(r.k.now - since)
	if elapsed <= 0 {
		return 0
	}
	return float64(r.BusyTime()) / float64(elapsed)
}
