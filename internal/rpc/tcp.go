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
	go p.readLoop()
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
	go p.readLoop()
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

// Call performs one RPC and blocks until the reply arrives or the
// connection dies. The proc argument exists for signature compatibility
// with the simulated transport and is ignored.
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
		frame, err := wire.ReadFrame(p.conn)
		if err != nil {
			return
		}
		// The frame is this loop's alone, so it is opened where it lies
		// (after the tag verifies, never before) and the decoded Body and
		// Bulk alias it: the one file-sized allocation of a transfer.
		plain, err := p.box.OpenInPlace(frame)
		if err != nil || len(plain) == 0 {
			return // tampering: drop the connection, per mutual suspicion
		}
		kind, rest := plain[0], plain[1:]
		switch kind {
		case kindCall:
			seq, tc, req, err := decodeCall(rest)
			if err != nil {
				return
			}
			go p.serve(seq, tc, req)
		case kindReply:
			seq, svc, resp, err := decodeReply(rest)
			if err != nil {
				return
			}
			p.mu.Lock()
			ch := p.pending[seq]
			delete(p.pending, seq)
			p.mu.Unlock()
			if ch != nil {
				ch <- outcome{resp: resp, svc: svc}
			}
		default:
			return
		}
	}
}

func (p *Peer) serve(seq uint32, tc wire.TraceHeader, req Request) {
	started := time.Now() //itcvet:allow wallclock -- real transport: service time here IS wall time
	sp := p.tracer.Load().StartRemote(tc, trace.SpanRPCServe, p.name)
	sp.SetInt(trace.AttrOp, int64(req.Op))
	var resp Response
	if p.server == nil {
		resp = Response{Code: CodeUnknownOp, Body: []byte("no server on this peer")}
	} else {
		resp = p.server.Dispatch(Ctx{User: p.user, Peer: p.name, Back: p, Span: sp}, req)
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
	encodeReplyHead(e, seq, elapsed, resp)
	_ = p.send(e, resp.Bulk) // a failed send has closed the peer; nobody to tell
}
