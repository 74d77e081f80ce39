package sim

// Mailbox is an unbounded FIFO queue connecting simulated processes. Put may
// be called from kernel context (an event callback) or from a running
// process; Get may only be called from a process and parks until a value is
// available.
//
// The queue and waiter list are head-indexed rings: Get consumes from the
// head without re-slicing the backing array away, so a steady-state
// producer/consumer pair recycles one allocation instead of growing and
// re-copying forever. Waking a receiver schedules the parked Proc directly
// (no closure), so Put is allocation-free once the ring is warm.
type Mailbox[T any] struct {
	k       *Kernel
	queue   []T
	qhead   int
	waiters []*Proc
	whead   int
}

// NewMailbox returns an empty mailbox on kernel k.
func NewMailbox[T any](k *Kernel) *Mailbox[T] {
	return &Mailbox[T]{k: k}
}

// Len reports the number of queued values.
func (m *Mailbox[T]) Len() int { return len(m.queue) - m.qhead }

// Put enqueues v. If a process is waiting, it is scheduled to wake at the
// current virtual time.
func (m *Mailbox[T]) Put(v T) {
	if m.qhead == len(m.queue) {
		// Empty: rewind to reuse the ring's capacity.
		m.queue = m.queue[:0]
		m.qhead = 0
	}
	m.queue = append(m.queue, v)
	if m.whead < len(m.waiters) {
		p := m.waiters[m.whead]
		m.waiters[m.whead] = nil
		m.whead++
		if m.whead == len(m.waiters) {
			m.waiters = m.waiters[:0]
			m.whead = 0
		}
		m.k.wakeAt(m.k.now, p)
	}
}

// Get dequeues the oldest value, parking the calling process until one is
// available.
func (m *Mailbox[T]) Get(p *Proc) T {
	for m.qhead == len(m.queue) {
		m.waiters = append(m.waiters, p)
		p.park()
	}
	var zero T
	v := m.queue[m.qhead]
	m.queue[m.qhead] = zero
	m.qhead++
	return v
}

// TryGet dequeues a value if one is present without parking.
func (m *Mailbox[T]) TryGet() (T, bool) {
	var zero T
	if m.qhead == len(m.queue) {
		return zero, false
	}
	v := m.queue[m.qhead]
	m.queue[m.qhead] = zero
	m.qhead++
	return v, true
}

// Future is a write-once value that processes can wait on. It is the reply
// slot for simulated RPCs.
type Future[T any] struct {
	k    *Kernel
	done bool
	v    T
	// The single-waiter case is nearly universal (one caller per reply
	// slot), so the first waiter is held inline; only a second concurrent
	// waiter allocates the overflow slice.
	w       *Proc
	waiters []*Proc
}

// NewFuture returns an unresolved future on kernel k.
func NewFuture[T any](k *Kernel) *Future[T] {
	return &Future[T]{k: k}
}

// Reset makes f an unresolved future on kernel k, as NewFuture makes one,
// dropping its value: a holder that keeps its future by value and is itself
// pooled reuses it in place. No process may be waiting on f.
func (f *Future[T]) Reset(k *Kernel) { *f = Future[T]{k: k} }

// Done reports whether the future has been resolved.
func (f *Future[T]) Done() bool { return f.done }

// TrySet resolves the future if it is still unresolved, reporting whether it
// did. Use it when several events race to resolve the same future (a reply
// racing a timeout).
func (f *Future[T]) TrySet(v T) bool {
	if f.done {
		return false
	}
	f.Set(v)
	return true
}

// Set resolves the future and wakes all waiters. Setting twice panics.
func (f *Future[T]) Set(v T) {
	if f.done {
		panic("sim: future set twice")
	}
	f.done = true
	f.v = v
	if f.w != nil {
		f.k.wakeAt(f.k.now, f.w)
		f.w = nil
	}
	for _, p := range f.waiters {
		f.k.wakeAt(f.k.now, p)
	}
	f.waiters = nil
}

// Wait parks the calling process until the future resolves, then returns the
// value.
func (f *Future[T]) Wait(p *Proc) T {
	for !f.done {
		if f.w == nil || f.w == p {
			f.w = p
		} else {
			f.waiters = append(f.waiters, p)
		}
		p.park()
	}
	return f.v
}
