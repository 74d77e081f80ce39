package rpc

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/wire"
)

// The call core: what placing a call and serving one mean, written once for
// both carriers (SimConn over the simulated network, Peer over a byte
// stream). The core owns the call table, the attempt loop under a
// per-attempt deadline, the callback policy, the trace header and the serve
// path. A carrier supplies only how a sealed call travels and how its caller
// waits for the outcome (exchange), the backoff before an unanswered call goes
// out again (pause), and a thread for each received call to be served on.

// defaultCallTimeout is a call attempt's deadline: the one EndpointConfig's
// zero CallTimeout means, and every Peer's.
const defaultCallTimeout = 60 * time.Second

// carrier is what a transport supplies the call core.
type carrier interface {
	// exchange registers a slot for seq in the core's table, sends req under
	// seq and tc, and waits until the outcome fills the slot or d passes. An
	// expired attempt's outcome carries an error wrapping ErrTimeout (worded
	// for a callback when callback is set), and its slot is no longer in the
	// table. On success, exchange may annotate sp with the network's share of
	// the call.
	exchange(p *sim.Proc, sp *trace.Span, seq uint32, tc wire.TraceHeader, req Request, d time.Duration, callback bool) outcome
	// pause precedes attempt a (a >= 1) of a call of op: the backoff of a
	// carrier whose network loses frames. A carrier that makes one attempt
	// per call is never asked to.
	pause(p *sim.Proc, op Op, a int)
}

// outcome is what fills a pending call's slot.
type outcome struct {
	resp Response
	err  error
	svc  time.Duration // server-reported service time, echoed in the reply
	pkt  *pkt          // the simulator's reply packet, carrying its network delays
}

// core is one connection end's call core: its call table, how patiently it
// calls, and the instruments it reports through. S is the carrier's slot, the
// thing a pending call's outcome is handed to.
type core[S any] struct {
	mu      sync.Mutex
	nextSeq uint32       // guarded by mu
	closed  bool         // guarded by mu
	pending map[uint32]S // guarded by mu

	accepted bool          // this end accepted the connection: its CallBack breaks promises
	attempts int           // per call; only the simulator's lossy network makes more than one
	timeout  time.Duration // per attempt
	obs      atomic.Pointer[observers]
}

// next opens a call, returning its sequence number, or false once the table
// is shut.
func (k *core[S]) next() (uint32, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.closed {
		k.nextSeq++
	}
	return k.nextSeq, !k.closed
}

// isShut reports whether the table is shut.
func (k *core[S]) isShut() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.closed
}

// put makes s the slot seq's outcome is handed to. One put after shut is
// never handed one; its caller learns of the close from its carrier.
func (k *core[S]) put(seq uint32, s S) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.pending[seq] = s
}

// take unlinks and returns seq's slot, or reports false if it has none: the
// reply, the deadline or shut took it first. Whichever takes a slot is the
// one that hands it an outcome, so a slot gets exactly one.
func (k *core[S]) take(seq uint32) (S, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	s, ok := k.pending[seq]
	delete(k.pending, seq)
	return s, ok
}

// shut closes the table to new calls and unlinks every pending one,
// returning their slots in sequence order; first is false if it was already
// shut.
func (k *core[S]) shut() (slots []S, first bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return nil, false
	}
	k.closed = true
	seqs := make([]uint32, 0, len(k.pending))
	for seq := range k.pending {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		slots = append(slots, k.pending[seq])
		delete(k.pending, seq)
	}
	return slots, true
}

// call places req over c and waits for its outcome. An ordinary call makes
// the core's attempts, each under the full deadline and all under one
// sequence number, so a receiver that keeps a reply cache executes it once. A
// callback — a call from the end that accepted the connection, breaking a
// promise — makes one attempt under a quarter of the deadline: a hung cache
// holder must not stall another client's mutation for a whole call deadline.
// The call runs under an rpc.call span, a child of p's ambient one (so a
// callback shows in the trace of the mutation that caused it), and the span's
// context rides in the call's header.
func (k *core[S]) call(c carrier, p *sim.Proc, req Request, callback bool) (Response, error) {
	seq, ok := k.next()
	if !ok {
		return Response{}, ErrClosed
	}
	attempts, d := k.attempts, k.timeout
	if callback {
		attempts, d = 1, d/4
	}
	o := k.obs.Load()
	sp := o.tracer.Begin(p, trace.SpanRPCCall, o.node)
	sp.SetInt(trace.AttrOp, int64(req.Op))
	started := Clock(p)
	tc := sp.Context()
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.pause(p, req.Op, a)
			if k.isShut() {
				break
			}
		}
		out := c.exchange(p, sp, seq, tc, req, d, callback)
		if err = out.err; err == nil {
			sp.SetInt(trace.AttrServerNs, int64(out.svc))
			sp.End()
			o.callLat.Observe(Clock(p).Sub(started))
			return out.resp, nil
		}
		if !errors.Is(err, ErrTimeout) {
			break
		}
		o.timeouts.Inc()
	}
	sp.End()
	return Response{}, err
}

// serve runs one received call to its reply on p: an rpc.serve span
// continuing the caller's trace as p's ambient span, srv's handler, and the
// service time the reply echoes — from the start through bill's charge for
// the call (a simulated server's; nil on a Peer). Last, srv's OnServed hook,
// if any, sees the call with that service time.
func (k *core[S]) serve(p *sim.Proc, srv *Server, ctx Ctx, tc wire.TraceHeader, req Request, bill Bill) (Response, time.Duration) {
	o := k.obs.Load()
	started := Clock(p)
	sp := o.tracer.BeginRemote(p, tc, trace.SpanRPCServe, o.node)
	sp.SetInt(trace.AttrOp, int64(req.Op))
	ctx.Span = sp
	resp, served := srv.dispatch(ctx, req)
	if bill != nil {
		bill.Call(ctx, req, resp)
	}
	svc := Clock(p).Sub(started)
	o.serveLat.Observe(svc)
	sp.End()
	if served != nil {
		served(ctx, req, resp, svc)
	}
	return resp, svc
}

// observers are the instruments a connection end's calls and serves report
// through, each resolved from its registry once so that no call looks a
// metric up by name. Any may be nil, and then records nothing.
type observers struct {
	tracer   *trace.Tracer
	node     string // the machine spans are recorded on: this end's own
	timeouts *trace.Counter
	callLat  *trace.Histogram
	serveLat *trace.Histogram
}

func newObservers(t *trace.Tracer, reg *trace.Registry, node string) observers {
	return observers{
		tracer:   t,
		node:     node,
		timeouts: reg.Counter(trace.MetricRPCCallTimeouts),
		callLat:  reg.Histogram(trace.MetricRPCCallLatency),
		serveLat: reg.Histogram(trace.MetricRPCServeLatency),
	}
}

// The time seam: Clock and Sleep are the one place a process's regime is
// asked about in this package. A simulated process (one with a kernel) keeps
// virtual time; a process without a kernel (or none) is a real caller's or a
// Peer worker's, and keeps the wall's.

// epoch is where a real transport's clock starts.
var epoch = time.Now() //itcvet:allow wallclock -- the real transport's clock is the wall's (see Clock)

// Clock reads the time a caller of p is measured in: p's virtual time in the
// simulator; for a process without a kernel (or none), a real transport's,
// the wall's (monotonic) time. Calls and serves are timed by it, and so is
// anything a client keeps or measures in the same regime (Venus's promise
// ages and latencies).
func Clock(p *sim.Proc) sim.Time {
	if k := p.Kernel(); k != nil {
		return k.Now()
	}
	return sim.Time(time.Since(epoch)) //itcvet:allow wallclock -- a real transport's calls take wall time
}

// Sleep waits d in the time Clock reads for p: a simulated process sleeps d
// of virtual time (p.Sleep, so from p's own body); a process without a
// kernel (or none) blocks its goroutine for d of wall time.
func Sleep(p *sim.Proc, d time.Duration) {
	if k := p.Kernel(); k != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d) //itcvet:allow wallclock -- a real process waits in wall time
}
