package rpc

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/wire"
)

// Peer is an authenticated, encrypted, full-duplex RPC connection over a
// real byte stream (typically TCP). Both sides may place calls; both sides
// may serve them. It carries exactly the bytes the simulated transport
// models, so cmd/itcfsd is the same Vice the simulator evaluates.
type Peer struct {
	conn   io.ReadWriteCloser
	box    *secure.Box
	user   string
	name   string
	server *Server

	wmu sync.Mutex // serializes frame writes: held while a frame is sealed onto conn

	mu      sync.Mutex
	nextSeq uint32                  // guarded by mu
	pending map[uint32]chan outcome // guarded by mu
	closed  bool                    // guarded by mu
	done    chan struct{}           // created at construction; closed (once) under mu, readable always

	hdr  [wire.FrameHeaderSize]byte // the read loop's own: the length prefix of the frame it reads
	work chan job                   // a call on its way to a parked worker; unbuffered (see dispatch)
	// routines counts the read loop and the workers, each of which exits
	// once done is closed; spawned counts the workers ever started. Only
	// tests read them: that Close left no worker behind, that every served
	// call's frame is back in the pool, how large the pool grew.
	routines sync.WaitGroup
	spawned  atomic.Int32

	// Atomic because AcceptPeer starts the read loop itself: the first call
	// may already be in serve when the caller gets the peer to configure.
	// Both start out as the server's (Server.Observe).
	tracer  atomic.Pointer[trace.Tracer]   // optional wall-clock tracer for served calls
	metrics atomic.Pointer[trace.Registry] // optional registry for served-call latency
}

// SetTracer installs a tracer recording a span per call this peer serves.
// Real clients do not propagate trace context, so each served call begins a
// new root (see Tracer.StartRemote). Calls served before it is installed go
// untraced (or to the tracer Server.Observe named).
func (p *Peer) SetTracer(t *trace.Tracer) { p.tracer.Store(t) }

// SetMetrics installs a registry observing the wall-clock service time of
// every call this peer serves into the canonical rpc.serve.latency
// histogram. Calls served before it is installed go unobserved (or to the
// registry Server.Observe named); a nil registry is inert.
func (p *Peer) SetMetrics(reg *trace.Registry) { p.metrics.Store(reg) }

// maxHandshakeFrame caps the four handshake messages (each well under
// 1 KiB: a user name plus a sealed nonce or key). Until they verify, the far
// side is anyone who can open a socket, and must not be able to make this
// process allocate wire.MaxField on the strength of a 4-byte header.
const maxHandshakeFrame = 4 << 10

// DialPeer authenticates as user over conn (handshake messages 1-4) and
// returns a connected peer. server, which may be nil, handles calls the far
// side places on this connection (callbacks).
func DialPeer(conn io.ReadWriteCloser, user string, key secure.Key, server *Server) (*Peer, error) {
	hs := secure.NewClientHandshake(user, key)
	if err := wire.WriteFrame(conn, hs.Hello()); err != nil {
		return nil, fmt.Errorf("rpc: handshake: %w", err)
	}
	challenge, err := wire.ReadFrameLimit(conn, maxHandshakeFrame)
	if err != nil {
		return nil, fmt.Errorf("rpc: handshake: %w", err)
	}
	proof, err := hs.Proof(challenge)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(conn, proof); err != nil {
		return nil, fmt.Errorf("rpc: handshake: %w", err)
	}
	final, err := wire.ReadFrameLimit(conn, maxHandshakeFrame)
	if err != nil {
		return nil, fmt.Errorf("rpc: handshake: %w", err)
	}
	session, err := hs.Session(final)
	if err != nil {
		return nil, err
	}
	p := newPeer(conn, secure.NewBox(session), user, "server", server)
	p.start()
	return p, nil
}

// AcceptPeer performs the server side of the handshake on conn, resolving
// client keys through keys, and returns the authenticated peer. server
// handles the client's calls.
func AcceptPeer(conn io.ReadWriteCloser, keys secure.KeyLookup, server *Server) (*Peer, error) {
	hs := secure.NewServerHandshake(keys)
	hello, err := wire.ReadFrameLimit(conn, maxHandshakeFrame)
	if err != nil {
		return nil, fmt.Errorf("rpc: handshake: %w", err)
	}
	challenge, err := hs.Challenge(hello)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(conn, challenge); err != nil {
		return nil, fmt.Errorf("rpc: handshake: %w", err)
	}
	proof, err := wire.ReadFrameLimit(conn, maxHandshakeFrame)
	if err != nil {
		return nil, fmt.Errorf("rpc: handshake: %w", err)
	}
	final, session, err := hs.Complete(proof)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(conn, final); err != nil {
		return nil, fmt.Errorf("rpc: handshake: %w", err)
	}
	p := newPeer(conn, secure.NewBox(session), hs.User(), hs.User(), server)
	p.start()
	return p, nil
}

func newPeer(conn io.ReadWriteCloser, box *secure.Box, user, name string, server *Server) *Peer {
	p := &Peer{
		conn:    conn,
		box:     box,
		user:    user,
		name:    name,
		server:  server,
		pending: make(map[uint32]chan outcome),
		done:    make(chan struct{}),
		work:    make(chan job),
	}
	if server != nil {
		server.mu.RLock()
		p.tracer.Store(server.tracer)
		p.metrics.Store(server.metrics)
		server.mu.RUnlock()
	}
	return p
}

// User returns the authenticated identity of the connection: on an accepted
// peer, the client's user; on a dialed peer, the local user.
func (p *Peer) User() string { return p.user }

// start runs the read loop, counted in routines as every worker it starts is.
func (p *Peer) start() {
	p.routines.Add(1)
	go func() {
		defer p.routines.Done()
		p.readLoop()
	}()
}

// Call performs one RPC and blocks until the reply arrives or the
// connection dies. The proc argument exists for signature compatibility
// with the simulated transport and is ignored. The reply's Body and Bulk may
// lie in a buffer lent until resp.Release (see Response.Release).
func (p *Peer) Call(_ *sim.Proc, req Request) (Response, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return Response{}, ErrClosed
	}
	p.nextSeq++
	seq := p.nextSeq
	ch := outcomes.Get().(chan outcome)
	p.pending[seq] = ch
	p.mu.Unlock()

	// Real clients do not trace; the header rides zeroed.
	e := wire.GetEncoder()
	e.U8(kindCall)
	encodeCallHead(e, seq, wire.TraceHeader{}, req)
	if err := p.send(e, req.Bulk); err != nil {
		return Response{}, err
	}
	select {
	case out := <-ch:
		// The channel's one send has been received and whoever sent it
		// unlinked it from pending first: nothing can reach it again.
		outcomes.Put(ch)
		return out.resp, out.err
	case <-p.done:
		// Close's ErrClosed may be in ch or still on its way: not reusable.
		return Response{}, ErrClosed
	}
}

// outcomes recycles the one-shot channels calls wait on. A pending channel
// receives exactly one send — the reply from readLoop, or ErrClosed from
// Close, each after removing it from pending under mu — so it is empty and
// unreferenced, and may serve another call, only once that send has been
// received. Call returns it on that branch and no other: a channel abandoned
// with its send undelivered would hand a later call a stale outcome.
var outcomes = sync.Pool{New: func() any { return make(chan outcome, 1) }}

// CallBack implements Backchannel.
func (p *Peer) CallBack(proc *sim.Proc, req Request) (Response, error) { return p.Call(proc, req) }

// BackUser implements Backchannel.
func (p *Peer) BackUser() string { return p.user }

// Close tears the connection down and fails all in-flight calls.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	seqs := make([]uint32, 0, len(p.pending))
	for seq := range p.pending {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		//itcvet:allowblocking pending channels are buffered (cap 1) and receive exactly one send, so this never parks
		p.pending[seq] <- outcome{err: ErrClosed}
		delete(p.pending, seq)
	}
	p.mu.Unlock()
	return p.conn.Close()
}

// Done is closed when the connection has terminated.
func (p *Peer) Done() <-chan struct{} { return p.done }

// send seals one packet — the head in e, then bulk — onto the connection as
// one frame and returns e to its pool. The bulk bytes go from the caller's
// slice through the sealer's chunk buffer to the socket and are never copied
// whole. A failure (a short or refused write, nonce exhaustion) can leave
// part of a frame on the wire, so it closes the peer: in-flight calls fail
// with ErrClosed and the owner redials, which also renews the session key.
func (p *Peer) send(e *wire.Encoder, bulk []byte) error {
	p.wmu.Lock()
	//itcvet:allowblocking wmu exists to serialize frame writes; writers expect to pace each other on socket I/O, now chunk by chunk as the frame is sealed
	err := p.box.SealFrame(p.conn, e.Buf(), bulk)
	p.wmu.Unlock()
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
		sealed, fr, err := p.readFrame()
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
// which its receiver may keep.
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
// not decode. The frame is opened where it lies, after the tag verifies and
// never before, and the decoded Body and Bulk alias it: the one file-sized
// allocation of a transfer, and none at all below the hand-over size.
func (p *Peer) deliver(sealed []byte, fr *frame) bool {
	plain, err := p.box.OpenInPlace(sealed)
	if err != nil || len(plain) == 0 || !p.box.InSequence(sealed) {
		return false
	}
	kind, rest := plain[0], plain[1:]
	switch kind {
	case kindCall:
		seq, tc, req, err := decodeCall(rest)
		if err != nil {
			return false
		}
		p.dispatch(job{seq: seq, tc: tc, req: req, frame: fr})
	case kindReply:
		seq, svc, resp, err := decodeReply(rest)
		if err != nil {
			return false
		}
		resp.frame = fr
		p.mu.Lock()
		ch := p.pending[seq]
		delete(p.pending, seq)
		p.mu.Unlock()
		if ch == nil {
			resp.Release() // its caller is gone
		} else {
			ch <- outcome{resp: resp, svc: svc}
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

// dispatch hands j to a parked worker, or starts a worker for it when none is
// parked. It never waits, and there is no queue: the replies that busy
// workers are waiting for — a handler breaking a callback over this same
// connection — arrive on the read loop that calls it, so a read loop that
// waited for a free worker could wait for ever. The pool is therefore as
// large as the most calls ever served at once on this connection; a bound,
// and backpressure on the socket, belong here and need their own argument
// against that deadlock.
func (p *Peer) dispatch(j job) {
	select {
	case p.work <- j:
	default:
		p.spawned.Add(1)
		p.routines.Add(1)
		go p.worker(j)
	}
}

// worker serves j and then each call handed to it, parked in between, until
// the peer closes: one of the server's lightweight threads of control.
func (p *Peer) worker(j job) {
	defer p.routines.Done()
	for {
		p.serve(j)
		select {
		case j = <-p.work:
		case <-p.done:
			return
		}
	}
}

// serve runs one call, seals its reply and gives the call's frame back —
// only then, because the reply may alias the request.
func (p *Peer) serve(j job) {
	started := time.Now() //itcvet:allow wallclock -- real transport: service time here IS wall time
	sp := p.tracer.Load().StartRemote(j.tc, trace.SpanRPCServe, p.name)
	sp.SetInt(trace.AttrOp, int64(j.req.Op))
	var resp Response
	if p.server == nil {
		resp = Response{Code: CodeUnknownOp, Body: []byte("no server on this peer")}
	} else {
		resp = p.server.Dispatch(Ctx{User: p.user, Peer: p.name, Back: p, Span: sp}, j.req)
	}
	sp.End()
	// Wall-clock service time stands in for the simulator's virtual measure.
	elapsed := time.Since(started) //itcvet:allow wallclock -- real transport: service time here IS wall time
	p.metrics.Load().Histogram(trace.MetricRPCServeLatency).Observe(elapsed)
	// resp.Bulk is read while it streams out, after the handler has returned:
	// a fetch reply's Bulk is the volume's own slice, safe because volume
	// replaces file contents and never mutates them in place.
	e := wire.GetEncoder()
	e.U8(kindReply)
	encodeReplyHead(e, j.seq, elapsed, resp)
	_ = p.send(e, resp.Bulk) // a failed send has closed the peer; nobody to tell
	j.frame.release()
}

// handOver is wire.KeepField's size (TestHandOverIsKeepFieldSize pins the
// two together). A frame shorter than it holds no field its receiver may keep
// — every field of it is copied out if kept at all — so it is read into a
// pooled buffer, lent to the one call or reply it carries and taken back when
// that is done: by the worker once the reply is sealed, by the caller with
// Response.Release. From handOver on, a frame gets a buffer of its own that
// its receiver may keep.
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
