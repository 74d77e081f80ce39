package rpc

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/wire"
)

// Peer is an authenticated, encrypted, full-duplex RPC connection over a
// real byte stream (typically TCP): the call core's second carrier (call.go),
// whose pending calls wait on pooled slots. Both sides may place calls; both
// sides may serve them. It carries exactly the bytes the simulated transport
// models, so cmd/itcfsd is the same Vice the simulator evaluates.
type Peer struct {
	core[*slot]

	conn   io.ReadWriteCloser
	box    *secure.Box
	user   string
	name   string
	server *Server

	done chan struct{} // closed by the first Close

	hdr  [wire.FrameHeaderSize]byte // the read loop's own: the length prefix of the frame it reads
	work chan job                   // a call on its way to an idle worker; unbuffered (see dispatch)
	// idle counts the workers done with their last call, parked or with
	// nothing left to do before they park; only a worker adds to it and only
	// dispatch, on the read loop, takes from it (see dispatch).
	idle atomic.Int32

	// routines counts the read loop and the workers, each of which exits
	// once done is closed; spawned counts the workers ever started; orphans
	// counts the replies that found their caller gone. Only tests read them:
	// that Close left no worker behind, that every served call's frame is
	// back in the pool, how large the pool grew, that a late reply was
	// released.
	routines sync.WaitGroup
	spawned  atomic.Int32
	orphans  atomic.Int64
}

// SetMetrics installs a registry that this peer's calls and serves report
// to from now on (rpc.call.latency, rpc.call.timeouts, rpc.serve.latency) in
// place of the one Server.Observe named; a nil registry is inert.
func (p *Peer) SetMetrics(reg *trace.Registry) {
	old := p.obs.Load()
	o := newObservers(old.tracer, reg, old.node)
	p.obs.Store(&o)
}

// maxHandshakeFrame caps the four handshake messages (each well under
// 1 KiB: a user name plus a sealed nonce or key). Until they verify, the far
// side is anyone who can open a socket, and must not be able to make this
// process allocate wire.MaxField on the strength of a 4-byte header.
const maxHandshakeFrame = 4 << 10

// DialPeer authenticates as user over conn (handshake messages 1-4) and
// returns a connected peer. server, which may be nil, handles calls the far
// side places on this connection (callbacks).
func DialPeer(conn io.ReadWriteCloser, user string, key secure.Key, server *Server) (*Peer, error) {
	box, err := dialHandshake(user, key, func(_ uint8, msg []byte) ([]byte, error) { return frameStep(conn, msg) })
	if err != nil {
		return nil, err
	}
	p := newPeer(conn, box, user, "server", server, false)
	p.start()
	return p, nil
}

// AcceptPeer performs the server side of the handshake on conn, resolving
// client keys through keys, and returns the authenticated peer. server
// handles the client's calls.
func AcceptPeer(conn io.ReadWriteCloser, keys secure.KeyLookup, server *Server) (*Peer, error) {
	hs := secure.NewServerHandshake(keys)
	hello, err := frameStep(conn, nil)
	if err != nil {
		return nil, err
	}
	challenge, err := hs.Challenge(hello)
	if err != nil {
		return nil, err
	}
	proof, err := frameStep(conn, challenge)
	if err != nil {
		return nil, err
	}
	final, session, err := hs.Complete(proof)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(conn, final); err != nil {
		return nil, fmt.Errorf("rpc: handshake: %w", err)
	}
	p := newPeer(conn, secure.NewBox(session), hs.User(), hs.User(), server, true)
	p.start()
	return p, nil
}

// frameStep is one step of a handshake on a stream: it sends msg, if there
// is one, and reads the far side's next message.
func frameStep(conn io.ReadWriter, msg []byte) ([]byte, error) {
	if msg != nil {
		if err := wire.WriteFrame(conn, msg); err != nil {
			return nil, fmt.Errorf("rpc: handshake: %w", err)
		}
	}
	in, err := wire.ReadFrameLimit(conn, maxHandshakeFrame)
	if err != nil {
		return nil, fmt.Errorf("rpc: handshake: %w", err)
	}
	return in, nil
}

// noServer serves a peer built without a server: every call it is sent
// gets CodeUnknownOp.
var noServer = NewServer()

// newPeer returns a peer that starts out observed as server says
// (Server.Observe) and calls as the call core's policy says: one attempt per
// call, under defaultCallTimeout; impatiently back, if accepted.
func newPeer(conn io.ReadWriteCloser, box *secure.Box, user, name string, server *Server, accepted bool) *Peer {
	if server == nil {
		server = noServer
	}
	p := &Peer{
		core: core[*slot]{
			pending:  make(map[uint32]*slot),
			accepted: accepted,
			attempts: 1,
			timeout:  defaultCallTimeout,
		},
		conn:   conn,
		box:    box,
		user:   user,
		name:   name,
		server: server,
		done:   make(chan struct{}),
		work:   make(chan job),
	}
	in := server.instruments()
	o := newObservers(in.tracer, in.metrics, in.node)
	p.obs.Store(&o)
	return p
}

// User returns the authenticated identity of the connection: on an accepted
// peer, the client's user; on a dialed peer, the local user.
func (p *Peer) User() string { return p.user }

// start runs the read loop, counted in routines as every worker it starts is.
func (p *Peer) start() {
	p.routines.Add(1)
	busy.Add(1)
	go func() {
		defer p.routines.Done()
		defer busy.Add(-1)
		p.readLoop()
	}()
}

// busy counts, over every Peer in the process, the read loops that are not
// waiting for the start of their next frame and the workers that have a
// call in hand, whether serving it or on the way to. A worker is counted
// from dispatch, before the call leaves the read loop, until it parks again.
var busy atomic.Int64

// PeersIdle reports whether every Peer in the process is idle: each read
// loop waiting for its next frame, each worker done with its last call.
// It is a hook for tests that read process-wide counters after a call, whose
// served side may still be releasing the call's buffers when its caller has
// the reply: waiting for PeersIdle puts that tail before the read. Nothing
// else should consult it.
func PeersIdle() bool { return busy.Load() == 0 }

// Call performs one RPC and waits for its reply until the call's deadline —
// 60 s, the simulator's default — when it fails with ErrTimeout and its
// entry is reclaimed, or until the connection dies (ErrClosed). It makes one
// attempt: a stream neither loses nor duplicates a frame, and a duplicate
// would close the connection (secure.Box.OpenNext), so a retransmission
// could never be told from a replay. The call's rpc.call span nests under
// caller's ambient span: caller is the calling goroutine's own process
// without a kernel, a handler's Ctx.Proc, or nil for none. The reply's Body
// and Bulk may lie in a buffer lent until resp.Release (see
// Response.Release).
func (p *Peer) Call(caller *sim.Proc, req Request) (Response, error) {
	return p.call(p, caller, req, false)
}

// CallBack implements Backchannel: on the accepted end, a callback under
// the call core's policy — one attempt, a quarter of the deadline — so a
// workstation that never answers costs a breaking server 15 s, not 60. Its
// span nests under caller's, as Call's does.
func (p *Peer) CallBack(caller *sim.Proc, req Request) (Response, error) {
	return p.call(p, caller, req, p.accepted)
}

// BackUser implements Backchannel.
func (p *Peer) BackUser() string { return p.user }

// pause implements carrier. A Peer makes one attempt per call, so it is
// never asked to.
func (*Peer) pause(*sim.Proc, Op, int) {}

// exchange sends one call and waits, on a slot drawn from the pool, for the
// reply, the deadline or Close, whichever comes first. It implements carrier.
// A slot goes back to the pool only when its channel and its timer are both
// empty and nothing can send to either: after its outcome (timer stopped and
// drained), or after an expiry that took the slot from the table before a
// reply could. One abandoned with a send possibly still to come — Close's
// ErrClosed, after a failed send or on the done branch — is left to the
// collector, or a later call would draw another's outcome.
func (p *Peer) exchange(_ *sim.Proc, _ *trace.Span, seq uint32, tc wire.TraceHeader, req Request, d time.Duration, callback bool) outcome {
	s := slots.Get().(*slot)
	p.put(seq, s)
	e := wire.GetEncoder()
	e.U8(kindCall)
	encodeCallHead(e, seq, tc, req)
	if err := p.send(e, req.Bulk); err != nil {
		return outcome{err: err} // the peer is closed, and s abandoned
	}
	s.timer.Reset(d)
	select {
	case out := <-s.ch:
		s.disarm()
		slots.Put(s)
		return out
	case <-s.timer.C:
		if _, ok := p.take(seq); !ok {
			// The reply, or Close, took s first: its one outcome is on its
			// way, and a reply that beat the deadline to the table counts.
			out := <-s.ch
			slots.Put(s)
			return out
		}
		slots.Put(s)
		if callback {
			return outcome{err: fmt.Errorf("%w: callback op %d", ErrTimeout, req.Op)}
		}
		return outcome{err: fmt.Errorf("%w: op %d to %s", ErrTimeout, req.Op, p.name)}
	case <-p.done:
		s.timer.Stop()
		return outcome{err: ErrClosed}
	}
}

// slot is where a Peer's pending call waits: the channel its one outcome is
// sent on, and the timer of its deadline, stopped while the slot is pooled.
// See exchange for which slots may go back.
type slot struct {
	ch    chan outcome // cap 1: the sender never waits
	timer *time.Timer
}

var slots = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour) //itcvet:allow wallclock -- a Peer's deadline is wall time
	t.Stop()
	return &slot{ch: make(chan outcome, 1), timer: t}
}}

// disarm stops the deadline of a slot whose outcome came first. go.mod's
// "go 1.22" selects the timer semantics in which a timer that fired has put
// its value in C, or is about to; exchange received it only on the expiry
// branch, which did not run. So a Stop that comes too late is followed by
// draining C, or the slot's next call would find the value there and expire
// at once.
func (s *slot) disarm() {
	if !s.timer.Stop() {
		<-s.timer.C
	}
}

// Close tears the connection down and fails every call in flight, in
// sequence order, with ErrClosed.
func (p *Peer) Close() error {
	waiting, first := p.shut()
	if !first {
		return nil
	}
	close(p.done)
	for _, s := range waiting {
		s.ch <- outcome{err: ErrClosed} // its one send: shut unlinked it
	}
	return p.conn.Close()
}

// Done is closed when the connection has terminated.
func (p *Peer) Done() <-chan struct{} { return p.done }

// send seals one packet — the head in e, then bulk — onto the connection as
// one frame and returns e to its pool. The bulk bytes go from the caller's
// slice through the sealer's chunk buffer to the socket and are never copied
// whole; the Box's send side keeps concurrent senders' frames apart. A
// failure (a short or refused write, nonce exhaustion) can leave part of a
// frame on the wire, so it closes the peer: in-flight calls fail with
// ErrClosed and the owner redials, which also renews the session key.
func (p *Peer) send(e *wire.Encoder, bulk []byte) error {
	err := p.box.SealFrame(p.conn, e.Buf(), bulk)
	wire.PutEncoder(e)
	if err != nil {
		p.Close()
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return nil
}

// readLoop demultiplexes inbound frames until the connection dies.
func (p *Peer) readLoop() {
	defer p.Close()
	for {
		busy.Add(-1)
		sealed, fr, err := p.readFrame()
		busy.Add(1)
		if err != nil {
			return
		}
		if !p.deliver(sealed, fr) {
			fr.release()
			return
		}
	}
}

// readFrame reads the next frame off the connection. One shorter than the
// hand-over size lands in a buffer lent from the pool, returned as fr to go
// wherever the frame does; a larger one gets a buffer of its own (fr nil),
// which deliver hands over.
func (p *Peer) readFrame() (sealed []byte, fr *frame, err error) {
	if _, err := io.ReadFull(p.conn, p.hdr[:]); err != nil {
		return nil, nil, err
	}
	var d wire.Decoder
	d.Reset(p.hdr[:])
	n := d.U32()
	if n > wire.MaxField {
		return nil, nil, wire.ErrTooLong
	}
	if fr = lendFrame(int(n)); fr != nil {
		sealed = fr.buf[:n]
	} else {
		sealed = make([]byte, n)
	}
	if _, err := io.ReadFull(p.conn, sealed); err != nil {
		fr.release()
		return nil, nil, err
	}
	return sealed, fr, nil
}

// deliver opens one frame and hands it on with fr, the buffer it lies in: a
// call to a worker, a reply to the caller waiting for it. It reports false,
// leaving fr to its caller, for a frame that must end the connection, per
// mutual suspicion: one that fails its tag, one that is not the far side's
// next record (replayed, or reflected back from this side), or one that does
// not decode. The frame is opened where it lies, after the tag and the
// sequence check pass and never before, and the decoded Body and Bulk alias
// it: the one file-sized allocation of a transfer, and none at all below the
// hand-over size.
func (p *Peer) deliver(sealed []byte, fr *frame) bool {
	plain, err := p.box.OpenNext(sealed)
	if err != nil || len(plain) == 0 {
		return false
	}
	kind, rest := plain[0], plain[1:]
	switch kind {
	case kindCall:
		seq, tc, req, err := decodeCall(rest)
		if err != nil {
			return false
		}
		req.Owned = fr == nil
		p.dispatch(job{seq: seq, tc: tc, req: req, frame: fr})
	case kindReply:
		seq, svc, resp, err := decodeReply(rest)
		if err != nil {
			return false
		}
		resp.frame, resp.Owned = fr, fr == nil
		if s, ok := p.take(seq); ok {
			s.ch <- outcome{resp: resp, svc: svc}
		} else {
			p.orphans.Add(1)
			resp.Release() // its caller is gone: its deadline passed, or Close
		}
	default:
		return false
	}
	return true
}

// job is one received call on its way to a worker, with the frame its
// request lies in.
type job struct {
	seq   uint32
	tc    wire.TraceHeader
	req   Request
	frame *frame
}

// dispatch hands j to an idle worker, or starts a worker for it when none is
// idle. It never waits for a busy worker, and there is no queue: the replies
// that busy workers are waiting for — a handler breaking a callback over
// this same connection — arrive on the read loop that calls it, so a read
// loop that waited for a free worker could wait for ever. It waits only for
// an idle worker that has not yet parked, which has nothing left to do
// first. So a call that arrives while the last call's worker is giving its
// buffers back, as a caller with its reply in hand can make happen, goes to
// that worker and not to a new one. The pool is as large as the most calls
// ever served at once on this connection; a bound, and backpressure on the
// socket, belong here and need their own argument against that deadlock.
func (p *Peer) dispatch(j job) {
	busy.Add(1)
	if p.idle.Load() > 0 { // only the read loop takes from idle: it cannot fall to 0 meanwhile
		p.idle.Add(-1)
		select {
		case p.work <- j:
			return
		case <-p.done: // the idle workers are exiting: serve j as before
		}
	}
	p.spawned.Add(1)
	p.routines.Add(1)
	go p.worker(j)
}

// worker serves j and then each call handed to it, parked in between, until
// the peer closes: one of the server's lightweight threads of control. It
// owns one process without a kernel for its whole life and serves every
// call on it; each call's rpc.serve span is the process's ambient span only
// until the call's reply is made.
func (p *Peer) worker(j job) {
	defer p.routines.Done()
	var proc sim.Proc
	for {
		p.handle(&proc, j)
		p.idle.Add(1)
		busy.Add(-1)
		select {
		case j = <-p.work:
		case <-p.done:
			return
		}
	}
}

// handle serves one call on proc through the call core, seals its reply and
// gives back the reply's pooled buffer and the call's frame — only then,
// because the reply may alias the request. resp.Bulk is read while it streams
// out, after the handler has returned: a fetch reply's Bulk is the volume's
// own slice, safe because volume replaces file contents and never mutates
// them in place.
func (p *Peer) handle(proc *sim.Proc, j job) {
	resp, svc := p.serve(proc, p.server, Ctx{User: p.user, Peer: p.name, Back: p, Proc: proc}, j.tc, j.req, nil)
	e := wire.GetEncoder()
	e.U8(kindReply)
	encodeReplyHead(e, j.seq, svc, resp)
	_ = p.send(e, resp.Bulk) // a failed send has closed the peer; nobody to tell
	resp.Release()
	j.frame.release()
}

// handOver is the frame size from which a Peer hands a frame over to its
// receiver. A shorter frame is read into a pooled buffer, lent to the one call
// or reply it carries and taken back when that is done — by the worker once
// the reply is sealed, by the caller with Response.Release — so every field
// of it is copied out if kept at all. From handOver on, a frame gets a buffer
// of its own, and the call or reply it carries is Owned: its receiver may
// keep a field as it is. Keeping a slice of a frame pins the whole frame —
// head, seal overhead and the allocator's rounding of the buffer up to whole
// 8 KiB pages — for as long as the field is held. From 256 KiB that excess is
// at most about 3 % of the field and a file-sized copy is saved; below it the
// copy is cheap and the excess is not (a 100 B file would pin a 250 B frame;
// a 64 KiB one spills into a ninth page, which measured as +10 % resident
// memory on the benchmark's mixed_rw_2c).
const handOver = 256 << 10

// frameTiers are the pooled buffer sizes; a frame takes the smallest that
// holds it. The first holds every call and reply without bulk data and a
// file of a few KiB with its head (a 4 KiB store). The second holds a 64 KiB
// payload with its head and seal overhead — a fetch reply's head carries a
// status, about 100 B, the seal 48 B — where a 64 KiB tier would send every
// 64 KiB transfer to the next one. The third runs up to handOver.
var frameTiers = [...]int{8 << 10, 72 << 10, handOver}

// framePools holds the idle buffers, one pool of *frame per tier.
var framePools [len(frameTiers)]sync.Pool

// frame is a pooled receive buffer and how much of it is lent out.
type frame struct {
	buf  []byte // the whole buffer, its tier's size
	n    int    // the lent frame is buf[:n]
	tier int
}

// lendFrame returns a pooled buffer for a frame of n bytes, or nil when n is
// not shorter than handOver.
func lendFrame(n int) *frame {
	for tier, size := range frameTiers {
		if n < size {
			fr, _ := framePools[tier].Get().(*frame)
			if fr == nil {
				fr = &frame{buf: make([]byte, size), tier: tier}
			}
			fr.n = n
			return fr
		}
	}
	return nil
}

// release wipes the bytes fr lent and pools it: no plaintext idles in the
// pool, and a slice kept past its loan reads as zeros until the buffer is
// lent again, never as the call it belonged to. A nil fr (an unpooled frame)
// is left to the collector.
func (fr *frame) release() {
	if fr == nil {
		return
	}
	clear(fr.buf[:fr.n])
	framePools[fr.tier].Put(fr)
}
