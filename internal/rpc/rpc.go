// Package rpc implements the connection-based remote procedure call package
// of Section 3.5.3: mutual client/server authentication and end-to-end
// encryption are integrated into the RPC layer, whole-file transfer is a
// side effect of a call (the Bulk payload), and a server is a single process
// with lightweight threads of control that serve call after call: on a Peer,
// a pool of worker goroutines, each parked between calls and handed the next
// one, as the paper's LWPs are — not a goroutine created per call.
//
// What a call means is written once, in the call core (call.go): the call
// table, a deadline per attempt (60 s unless an EndpointConfig says
// otherwise), the callback policy (a server breaking a promise makes one
// attempt under a quarter of the deadline), the trace header taken from the
// caller's rpc.call span, and the serve path into Server.Dispatch and then
// the Server's OnServed observer, with the call's service time. Two
// interchangeable carriers run it over the same sealed bytes:
//
//   - Endpoint (sim.go) runs over the simulated campus network in virtual
//     time, handing each call and handshake message served to its Bill,
//     which the cell prices and charges to the server's CPU and disk. Its
//     network loses and duplicates frames, so its calls retry under a
//     RetryPolicy and its servers keep an at-most-once reply cache. The
//     evaluation harness uses it.
//   - Peer (tcp.go) runs over any io.ReadWriteCloser, typically a TCP
//     connection, whose stream neither loses nor duplicates a frame: one
//     attempt per call, no reply cache. cmd/itcfsd and cmd/itcfs use it.
//
// Both carriers are full duplex: either side may register a Server and
// receive calls, which is how Vice breaks callbacks to Venus.
//
// A machine's instruments — its name, tracer, metric registry and flight
// recorder — are named once, on the Server its connections serve through
// (Server.Observe), and both carriers take them from there: an Endpoint from
// its EndpointConfig's Server, a Peer from the Server it is built on. Each
// resolves them into its call core's observers once, so both record the same
// spans and the same rpc.call.latency, rpc.call.timeouts and
// rpc.serve.latency.
//
// Both take the caller's *sim.Proc, whose ambient span the call's rpc.call
// span nests under, and serve each call on a process whose ambient span is
// the call's rpc.serve. In the simulator these are simulated processes. On a
// Peer a real caller may pass a process without a kernel (the zero
// sim.Proc, one per goroutine), and each worker serves on one of its own, so
// a real trace links from the client's operation through the server's
// callback breaks. A nil process is no process: the call's spans are linked
// by the header alone.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/wire"
)

// Op identifies a remote procedure.
type Op uint16

// Request is one remote procedure call. Body carries the marshalled
// arguments; Bulk carries a whole-file side effect, kept separate so
// transports and a server's Bill can account data bytes apart from protocol
// bytes (the paper's protocol-overhead argument for whole-file transfer).
// Both are lent to Call: only read, and only until it returns, however it
// returns (TestRequestBulkIsReadOnlyUntilCallReturns), so a caller may encode
// Body into a pooled buffer and reuse it then.
type Request struct {
	Op   Op
	Body []byte
	Bulk []byte

	// Owned is set on a received request whose carrier handed its buffer
	// over with it: Body and Bulk lie in bytes nothing else refers to or will
	// write, which the handler may keep as they are. A SimConn hands over
	// every call it receives, a Peer each one it read into a buffer of its
	// own (from the hand-over size on). A call a Peer lent a pooled frame
	// to is not owned, nor is a request its caller dispatches directly
	// unless the caller gives its buffers up with it; a handler copies out
	// whatever it keeps of a request not owned. Call ignores it.
	Owned bool
}

// Response is the result of a call. Code 0 is success; other codes are
// service-level errors defined by the application protocol. Transport-level
// failures are reported as Go errors, never as codes.
type Response struct {
	Code uint16
	Body []byte
	Bulk []byte

	// Owned is set on a received reply whose carrier handed its buffer
	// over with it, as Request.Owned is on a call: the caller may keep Body
	// and Bulk as they are, past Release. Every reply a SimConn receives is
	// owned, and each a Peer read into a buffer of its own; a reply a Peer
	// lent a pooled frame to is not, nor is a handler's own Response.
	Owned bool

	frame *frame        // the pooled buffer a received Body and Bulk lie in, lent until Release
	enc   *wire.Encoder // the pooled encoder a Reply's Body lies in, lent until Release
}

// Reply returns a successful response whose Body is m, encoded into a pooled
// encoder that is lent to the carrier: it seals the reply and then gives the
// encoder back with Release. A reply that never reaches a carrier (a
// handler called directly) is simply collected.
func Reply[M wire.Message](m M) Response {
	e := wire.MarshalPooled(m)
	return Response{Body: e.Buf(), enc: e}
}

// OK reports whether the response carries a success code.
func (r Response) OK() bool { return r.Code == 0 }

// Release gives back the pooled buffer a response's Body lies in, if it lies
// in one: a received frame, which the transport wipes and reads a later frame
// into, or a Reply's encoder, which encodes a later message. Neither Body nor
// Bulk may be read afterwards, so copy out whatever outlives the call first,
// unless the response is Owned: then nothing is given back, and both are the
// caller's to keep. The received responses that lie in lent frames are a
// Peer's that are not owned; on every other received response (the
// simulator's, a Peer's owned one, one already released) Release does
// nothing. A caller
// need not release — a response never released is simply collected — but a
// lent frame costs a whole pool tier, not the reply's size. The carriers
// release each reply they serve once it is sealed. Release one copy of a
// response, not two.
func (r *Response) Release() {
	r.frame.release()
	if r.enc != nil {
		wire.PutEncoder(r.enc)
	}
	r.frame, r.enc = nil, nil
}

// packetOverhead approximates header plus seal overhead per packet.
const packetOverhead = 96

// simulatedSeal is what the simulated network charges for a record's seal,
// whatever its length: 48 bytes, a 16-byte nonce and a 32-byte tag, what the
// AES-CTR and HMAC-SHA256 seal the simulator's timelines were calibrated
// with cost. The seal in use adds secure.Overhead a chunk; charging it
// instead would move every simulated timeline with each change to the seal
// (TestSimulatedWireSizes).
const simulatedSeal = 48

// Errors returned by transports.
var (
	ErrClosed      = errors.New("rpc: connection closed")
	ErrUnreachable = errors.New("rpc: peer unreachable")
	ErrBadPacket   = errors.New("rpc: malformed packet")

	// ErrTimeout reports a call that got no reply in time on an established
	// connection: the request may or may not have executed. It wraps
	// ErrUnreachable, so callers treating timeouts as unreachability keep
	// working, while tests can tell "no reply in time" (matches both) from
	// "could not even connect" (matches only ErrUnreachable).
	ErrTimeout = fmt.Errorf("rpc: call timed out: %w", ErrUnreachable)
)

// Ctx describes the authenticated origin of an incoming call.
type Ctx struct {
	User string // authenticated identity from the handshake
	Peer string // transport-level peer name (node or address), for logging
	// Back lets the handler place calls to the originating client on the
	// same connection (callback breaking). Nil when the transport or
	// direction does not support it.
	Back Backchannel
	// Proc is the worker process serving the call, whose ambient span is
	// the call's rpc.serve: pass it on to every call the handler places
	// (callback breaks, forwarded calls) and they nest under that span. In
	// the simulator it is a simulated process, which those calls park; on a
	// Peer it is the worker goroutine's process without a kernel, reused for
	// every call that worker serves, and the handler may simply block.
	Proc *sim.Proc
	// Span is the server-side trace span of this call, nil or suppressed
	// when the call is untraced. Handlers may annotate it.
	Span *trace.Span
}

// HandlerFunc serves one call. req.Body and req.Bulk are lent to it until it
// returns, unless req.Owned says they were handed over, and then it may keep
// either as it is; whatever else it keeps longer it copies. Its reply may
// alias them. The reply's Body is read until the carrier has sealed it; its
// Bulk is read after the handler has returned — while a Peer streams it out,
// and for as long as the simulator's reply cache keeps it to replay — so
// nothing may write to a reply's Bulk once the handler has returned. Each
// Bulk the tree's handlers reply with is one nothing writes again: a fetch's
// is the volume's own contents, which are replaced and never mutated, and the
// rest (a protection snapshot, a page read) are built for the reply.
type HandlerFunc func(ctx Ctx, req Request) Response

// Server dispatches incoming calls by opcode. It is safe for concurrent use
// and may be shared across transports and connections.
type Server struct {
	mu       sync.RWMutex
	handlers map[Op]HandlerFunc // guarded by mu
	fallback HandlerFunc        // guarded by mu
	served   servedFunc         // guarded by mu
	observed instruments        // guarded by mu
}

// instruments are what Observe names: the machine a Server serves on and
// what its calls and serves report to.
type instruments struct {
	node    string
	tracer  *trace.Tracer
	metrics *trace.Registry
	flight  *trace.Recorder
}

// servedFunc is what OnServed registers.
type servedFunc = func(ctx Ctx, req Request, resp Response, svc time.Duration)

// NewServer returns a server with no handlers.
func NewServer() *Server {
	return &Server{handlers: make(map[Op]HandlerFunc)}
}

// Handle registers fn for op, replacing any previous handler.
func (s *Server) Handle(op Op, fn HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[op] = fn
}

// HandleFallback registers fn for ops with no specific handler.
func (s *Server) HandleFallback(fn HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fallback = fn
}

// OnServed registers fn to observe every call served through s from now on,
// on either carrier, replacing any previous observer. fn runs after the
// call's handler and Bill, on the worker's process (ctx.Proc), before the
// reply is sent, so it must not block; resp is lent to it until it returns.
// svc is the service time the reply echoes, read by Clock: virtual time in
// the simulator, wall time on a Peer. A call dispatched directly (Dispatch)
// is not observed: it has no service time.
func (s *Server) OnServed(fn func(ctx Ctx, req Request, resp Response, svc time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.served = fn
}

// Observe names the machine s serves on and its instruments, once for both
// carriers: every Endpoint built with s as its Server, and every Peer built
// on s, from now on reports its calls and serves as node's — the tracer
// records them as spans on node and puts the rpc.call span's context in each
// call's header, the registry counts and times them, and the flight
// recorder (which only the simulator's retransmissions write to) logs their
// operational events. Each connection end reads them once, when it is built:
// an Endpoint at NewEndpoint, a Peer before AcceptPeer or DialPeer returns,
// so its first call is observed like the rest. Any of t, reg and fl may be
// nil.
func (s *Server) Observe(node string, t *trace.Tracer, reg *trace.Registry, fl *trace.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observed = instruments{node: node, tracer: t, metrics: reg, flight: fl}
}

// instruments returns what Observe last named.
func (s *Server) instruments() instruments {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.observed
}

// CodeUnknownOp is the response code for calls nobody handles.
const CodeUnknownOp = 0xFFFF

// Dispatch routes one call. A missing handler yields CodeUnknownOp.
func (s *Server) Dispatch(ctx Ctx, req Request) Response {
	resp, _ := s.dispatch(ctx, req)
	return resp
}

// dispatch is Dispatch for a carrier's serve path, which also gets the
// OnServed observer, read under the same lock as the handler.
func (s *Server) dispatch(ctx Ctx, req Request) (Response, servedFunc) {
	s.mu.RLock()
	fn, ok := s.handlers[req.Op]
	if !ok {
		fn = s.fallback
	}
	served := s.served
	s.mu.RUnlock()
	if fn == nil {
		return Response{Code: CodeUnknownOp, Body: []byte(fmt.Sprintf("unknown op %d", req.Op))}, served
	}
	return fn(ctx, req), served
}

// Packet kinds on the wire. Handshake packets are cleartext (their contents
// are sealed records from the secure package); call and reply packets are
// sealed in their entirety under the session key.
const (
	kindHello     = 1 // client -> server, handshake message 1
	kindChallenge = 2 // server -> client, handshake message 2
	kindProof     = 3 // client -> server, handshake message 3
	kindSession   = 4 // server -> client, handshake message 4
	kindCall      = 5
	kindReply     = 6
	kindClose     = 7
)

// dialHandshake runs the dialing side of the four-message handshake as
// user and returns the session's box. step sends one message of the given
// kind (kindHello, then kindProof) and returns the far side's answer.
func dialHandshake(user string, key secure.Key, step func(kind uint8, msg []byte) ([]byte, error)) (*secure.Box, error) {
	hs := secure.NewClientHandshake(user, key)
	challenge, err := step(kindHello, hs.Hello())
	if err != nil {
		return nil, err
	}
	proof, err := hs.Proof(challenge)
	if err != nil {
		return nil, err
	}
	final, err := step(kindProof, proof)
	if err != nil {
		return nil, err
	}
	session, err := hs.Session(final)
	if err != nil {
		return nil, err
	}
	return secure.NewSessionBox(session, secure.Dialer), nil
}

// A call or reply packet is a small head followed by the raw Bulk bytes. The
// head encoders below are the one definition of that layout: the simulated
// transport hands head and Bulk to secure.Box.Seal as two parts (sealPacket),
// the real one to secure.Box.SealFrame (Peer.send), and the bytes sealed are
// the same either way. Encoding a head copies Body into it, so a carrier
// reads a request's Body, or a reply's, only while it encodes the head.

// encodeCallHead appends a call packet up to and including Bulk's length
// prefix: seq, trace context, op, body. The trace header is always present —
// zero when untraced — so packet sizes, and with them simulated time, never
// depend on whether tracing is enabled.
func encodeCallHead(e *wire.Encoder, seq uint32, tc wire.TraceHeader, req Request) {
	e.U32(seq)
	tc.Encode(e)
	e.U16(uint16(req.Op))
	e.Bytes(req.Body)
	e.U32(uint32(len(req.Bulk)))
}

// sealPacket seals the packet whose head e holds, followed by bulk, as one
// record, and returns e to its pool. Head and bulk are sealed in turn and
// never joined: the plaintext lives only in the pooled head encoder and the
// caller's bulk, never in a fresh allocation of its own, and appending bulk to
// the head would grow a pooled encoder by a whole file.
func sealPacket(box *secure.Box, e *wire.Encoder, bulk []byte) []byte {
	sealed := box.Seal(e.Buf(), bulk)
	wire.PutEncoder(e)
	return sealed
}

// decodeCall decodes a call packet. The returned request's Body and Bulk
// alias plain, which the caller must treat as surrendered: every transport
// hands decodeCall a buffer nothing else refers to (the packet in the
// simulator, the frame just read on a Peer, each opened in place), so
// aliasing saves two copies per call without sharing hazards. The carrier
// then marks whether the buffer is handed over with the request or only lent
// to it (Request.Owned).
func decodeCall(plain []byte) (seq uint32, tc wire.TraceHeader, req Request, err error) {
	var d wire.Decoder
	d.Reset(plain)
	seq = d.U32()
	tc = wire.DecodeTraceHeader(&d)
	req.Op = Op(d.U16())
	req.Body = d.Bytes()
	req.Bulk = d.Bytes()
	if err := d.Close(); err != nil {
		return 0, wire.TraceHeader{}, Request{}, fmt.Errorf("%w: %v", ErrBadPacket, err)
	}
	return seq, tc, req, nil
}

// encodeReplyHead appends a reply packet up to and including Bulk's length
// prefix: seq, service time, code, body. The server echoes its measured
// service time so the client can attribute call latency between network and
// server; like the trace header it is always present, zero on transports
// that don't measure.
func encodeReplyHead(e *wire.Encoder, seq uint32, svc time.Duration, resp Response) {
	e.U32(seq)
	e.U64(uint64(svc))
	e.U16(resp.Code)
	e.Bytes(resp.Body)
	e.U32(uint32(len(resp.Bulk)))
}

// decodeReply decodes a reply packet. Body and Bulk alias plain (see
// decodeCall; on a Peer the caller holds the frame until Response.Release).
func decodeReply(plain []byte) (seq uint32, svc time.Duration, resp Response, err error) {
	var d wire.Decoder
	d.Reset(plain)
	seq = d.U32()
	svc = time.Duration(d.U64())
	resp.Code = d.U16()
	resp.Body = d.Bytes()
	resp.Bulk = d.Bytes()
	if err := d.Close(); err != nil {
		return 0, 0, Response{}, fmt.Errorf("%w: %v", ErrBadPacket, err)
	}
	return seq, svc, resp, nil
}
