package rpc

import (
	"fmt"
	"math/rand"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/wire"
)

// pkt is the unit carried through the simulated network. Data is real
// encrypted bytes — the simulation does not fake the cryptography, only the
// passage of time — and belongs to the packet's receiver alone, which opens
// it where it lies and hands what it decodes over (Request.Owned,
// Response.Owned).
type pkt struct {
	Conn uint64
	Kind uint8
	Data []byte
	From netsim.NodeID

	// Network-delay accounting, stamped by netsim (the DelaySink interface)
	// as the frame traverses links. The RPC client reads the request and
	// reply packets' delays to attribute call latency between queueing,
	// serialization and propagation.
	queueDelay  time.Duration
	serialDelay time.Duration
	propDelay   time.Duration
}

// size is what the packet costs on the simulated network: packetOverhead,
// the plaintext of the record it carries — a call or a reply, or a
// handshake message, whose clear bytes and one one-chunk sealed value
// PlainLen counts the same way — and simulatedSeal for the seal. A close
// carries no record.
func (p *pkt) size() int {
	if p.Kind == kindClose {
		return packetOverhead
	}
	return packetOverhead + secure.PlainLen(len(p.Data)) + simulatedSeal
}

// AddNetDelay implements netsim.DelaySink.
func (p *pkt) AddNetDelay(queue, serial, prop time.Duration) {
	p.queueDelay += queue
	p.serialDelay += serial
	p.propDelay += prop
}

// Duplicate implements netsim.Duplicable: the fault plane's duplicate of a
// packet carries bytes of its own, which its receiver opens in place as the
// original's receiver does, and accounts its own delays.
func (p *pkt) Duplicate() interface{} {
	return &pkt{Conn: p.Conn, Kind: p.Kind, Data: append([]byte(nil), p.Data...), From: p.From}
}

// WirePayload exposes the packet's bytes to the netsim corruption fault.
// Damaged packets fail the seal's MAC (or handshake verification) at the
// receiver and are discarded, exactly like a frame with a bad checksum.
func (p *pkt) WirePayload() []byte { return p.Data }

// RetryPolicy bounds retransmission of calls (and handshake steps) over the
// simulated transport. The zero value means a single attempt per call. Each
// retry reuses the call's sequence number, so the receiver's at-most-once
// reply cache recognizes retransmissions and never executes a call twice.
type RetryPolicy struct {
	Attempts   int           // total attempts per call; <= 1 disables retries
	Backoff    time.Duration // delay before the 2nd attempt; doubles per retry
	MaxBackoff time.Duration // cap on the backoff (0 = uncapped)
	Jitter     float64       // +/- fraction of random spread per backoff
	Seed       int64         // seeds the deterministic jitter source
}

// replyCache gives a connection at-most-once call semantics: the fault plane
// can duplicate frames and clients retransmit on timeout, so the receiver
// must recognize a sequence number it has already executed and resend the
// saved reply instead of running the operation again. It keeps each reply
// unsealed and seals every replay afresh: no packet it sends is one it
// holds, which the receiver opens in place and the corruption fault damages,
// and it holds no sealed second copy of each file a server sent.
type replyCache struct {
	inflight map[uint32]bool
	done     map[uint32]reply
	order    []uint32
}

// reply is a served call's reply as the reply cache keeps it: a copy of its
// encoded head (seq, service time, code, Body: small), and its Bulk by
// reference, which no one writes once its handler has returned (HandlerFunc).
type reply struct {
	head []byte
	bulk []byte
}

const replyCacheSize = 512

func newReplyCache() *replyCache {
	return &replyCache{inflight: make(map[uint32]bool), done: make(map[uint32]reply)}
}

func (rc *replyCache) finish(seq uint32, r reply) {
	delete(rc.inflight, seq)
	if _, ok := rc.done[seq]; !ok {
		rc.order = append(rc.order, seq)
	}
	rc.done[seq] = r
	for len(rc.order) > replyCacheSize {
		delete(rc.done, rc.order[0])
		rc.order = rc.order[1:]
	}
}

// Conn is an authenticated connection calls are placed on — the one interface
// both transports present (SimConn, Peer) and every caller above them takes.
// The proc argument is the calling process, whose ambient span the call's
// span nests under: a simulated one here, one without a kernel (or nil) on a
// Peer. Who owns Bulk across a call is set out at venus.Conn.
type Conn interface {
	Call(p *sim.Proc, req Request) (Response, error)
}

// Backchannel lets a server place calls back to a connected client (the
// callback path of the revised design). The proc argument is the calling
// process, as Conn's is.
type Backchannel interface {
	CallBack(p *sim.Proc, req Request) (Response, error)
	BackUser() string
}

// EndpointConfig configures an Endpoint.
type EndpointConfig struct {
	// Keys authenticates inbound connections; nil endpoints refuse them.
	Keys secure.KeyLookup
	// Server handles inbound calls; nil endpoints refuse them. What it was
	// observed with (Server.Observe) before NewEndpoint is what this
	// endpoint's calls, serves and retransmissions report to: spans, RPC
	// counters and latency histograms, and flight events. An endpoint without
	// one records nothing.
	Server *Server
	// Bill charges each call and handshake message served to the server's
	// simulated devices; nil charges nothing.
	Bill Bill
	// CallTimeout bounds Dial and Call waits; 0 means 60 simulated seconds,
	// the deadline every Peer has.
	CallTimeout time.Duration
	// Retry enables bounded retransmission with exponential backoff and
	// jitter; the zero value keeps the original single-attempt behavior.
	Retry RetryPolicy
}

// Bill is what serving costs a simulated server. Call runs on ctx.Proc after
// the handler, so reply sizes are known; Handshake runs on p once per
// handshake message served. Either may hold p on the server's devices, and
// the reply waits for it: the server CPU bottleneck of §5.2 emerges from that
// queueing. The prices themselves are the cell's (itcfs.CostConfig).
type Bill interface {
	Call(ctx Ctx, req Request, resp Response)
	Handshake(p *sim.Proc)
}

// Endpoint binds RPC to one node of the simulated network. It serves
// inbound connections (if configured with keys and a server) and originates
// outbound ones. It registers itself as the node's frame sink at
// construction, so received frames dispatch in kernel event context with no
// receive loop to wake.
type Endpoint struct {
	k    *sim.Kernel
	net  *netsim.Network
	node *netsim.Node
	cfg  EndpointConfig

	nextConn uint64
	outbound map[uint64]*SimConn
	inbound  map[inKey]*SimConn

	down bool
	rng  *rand.Rand // deterministic jitter source for retry backoff

	callCounts    map[Op]int64
	callsTotal    int64
	retries       int64
	dupSuppressed int64

	// mInflight gauges the calls currently executing in worker processes on
	// this endpoint (server endpoints only). Nil without a registry.
	mInflight *trace.Gauge

	// calls holds received calls until the workers spawned for them start;
	// work, the body every worker runs, is built once. free pools the
	// attempts of the calls this endpoint places.
	calls *sim.Mailbox[received]
	work  func(p *sim.Proc)
	free  []*attempt

	// The instruments every connection of this endpoint reports through,
	// and the simulator's own: handles resolved once at construction from
	// what the Server was observed with, all nil (and their methods no-ops)
	// without a registry or a recorder.
	obs      observers
	flight   *trace.Recorder
	mRetries *trace.Counter
	mReplays *trace.Counter
	mDupSup  *trace.Counter
}

type inKey struct {
	from netsim.NodeID
	conn uint64
}

// SimConn is one end of an authenticated connection: the end that dialed
// (kept in Endpoint.outbound under id) or the end that accepted (kept in
// Endpoint.inbound under {remote, id}). Both ends are carriers of the call
// core (call.go) and dedupe inbound calls the same way; they differ in how
// the handshake gets them a box and in how patiently they call (CallBack).
// An attempt is a pending call's slot.
type SimConn struct {
	core[*attempt]

	ep     *Endpoint
	remote netsim.NodeID
	id     uint64 // the dialer's connection number, as carried in every packet
	user   string // the identity the dialer authenticated as
	box    *secure.Box
	cache  *replyCache // dedupes inbound calls

	hsReply *sim.Future[[]byte] // dialing end: in-flight handshake step

	hs      *secure.ServerHandshake // accepting end: handshake in progress
	hsFinal []byte                  // accepting end: final handshake message, resent on duplicate proofs
}

// NewEndpoint attaches an endpoint to node and registers its receive sink.
func NewEndpoint(net *netsim.Network, node *netsim.Node, cfg EndpointConfig) *Endpoint {
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = defaultCallTimeout
	}
	if cfg.Retry.Attempts < 1 {
		cfg.Retry.Attempts = 1
	}
	ep := &Endpoint{
		k:          net.Kernel(),
		net:        net,
		node:       node,
		cfg:        cfg,
		outbound:   make(map[uint64]*SimConn),
		inbound:    make(map[inKey]*SimConn),
		callCounts: make(map[Op]int64),
		rng:        rand.New(rand.NewSource(cfg.Retry.Seed ^ int64(node.ID)*0x5851f42d4c957f2d)),
		calls:      sim.NewMailbox[received](net.Kernel()),
	}
	ep.work = ep.serveNext
	var in instruments
	if cfg.Server != nil {
		in = cfg.Server.instruments()
	}
	reg := in.metrics
	if reg != nil && cfg.Keys != nil {
		// Only authenticating (server) endpoints gauge their worker queue:
		// a thousand workstations' callback endpoints would pollute the
		// registry with idle series.
		ep.mInflight = reg.Gauge(trace.RPCInflightGauge(node.Name))
	}
	ep.obs = newObservers(in.tracer, reg, in.node)
	ep.flight = in.flight
	ep.mRetries = reg.Counter(trace.MetricRPCRetries)
	ep.mReplays = reg.Counter(trace.MetricRPCReplyCacheReplays)
	ep.mDupSup = reg.Counter(trace.MetricRPCDupSuppressed)
	node.SetSink(ep.deliver)
	return ep
}

// Crash power-fails the endpoint: every connection (inbound and outbound)
// and all at-most-once reply state is lost, and until Restart the endpoint
// neither sends nor receives. In-flight callers see their calls time out.
func (ep *Endpoint) Crash() {
	ep.down = true
	ep.outbound = make(map[uint64]*SimConn)
	ep.inbound = make(map[inKey]*SimConn)
}

// Restart brings a crashed endpoint back up with empty connection state.
// Peers must redial: their old connections are gone on this side and their
// calls on them will time out.
func (ep *Endpoint) Restart() { ep.down = false }

// Retries returns the number of call/handshake retransmissions sent.
func (ep *Endpoint) Retries() int64 { return ep.retries }

// DupSuppressed returns inbound calls recognized as duplicates by the
// at-most-once reply cache (answered from the cache or ignored while the
// original is still executing).
func (ep *Endpoint) DupSuppressed() int64 { return ep.dupSuppressed }

// backoff returns the delay before retry attempt a (a >= 1): exponential in
// the attempt number with deterministic jitter.
func (ep *Endpoint) backoff(a int) time.Duration {
	d := ep.cfg.Retry.Backoff
	if d <= 0 {
		d = time.Second
	}
	for i := 1; i < a; i++ {
		d *= 2
		if cap := ep.cfg.Retry.MaxBackoff; cap > 0 && d >= cap {
			break
		}
	}
	if cap := ep.cfg.Retry.MaxBackoff; cap > 0 && d > cap {
		d = cap
	}
	if j := ep.cfg.Retry.Jitter; j > 0 {
		d = time.Duration(float64(d) * (1 + j*(2*ep.rng.Float64()-1)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Node returns the network node the endpoint is bound to.
func (ep *Endpoint) Node() *netsim.Node { return ep.node }

// CallCounts returns a copy of the per-op histogram of calls served. This is
// the raw data behind the paper's "histogram of calls received by servers".
func (ep *Endpoint) CallCounts() map[Op]int64 {
	out := make(map[Op]int64, len(ep.callCounts))
	for op, n := range ep.callCounts {
		out[op] = n
	}
	return out
}

// CallsTotal returns the total number of calls served.
func (ep *Endpoint) CallsTotal() int64 { return ep.callsTotal }

func (ep *Endpoint) send(to netsim.NodeID, p *pkt) {
	if ep.down {
		return // a crashed host transmits nothing
	}
	p.From = ep.node.ID
	ep.net.Send(ep.node.ID, to, p.size(), p)
}

// deliver is the endpoint's receive path, registered as the node's frame
// sink: it runs in kernel event context, one scheduling hop after final
// propagation — exactly where the old dispatcher process resumed from its
// inbox park, minus the park/resume round trip per frame. It never blocks;
// all potentially-blocking work runs in per-call worker processes, which is
// exactly the single-process/many-LWPs server structure of the revised
// implementation (§3.5.2).
func (ep *Endpoint) deliver(msg netsim.Message) {
	pk, ok := msg.Payload.(*pkt)
	if !ok {
		return
	}
	if ep.down {
		return // a crashed host hears nothing
	}
	switch pk.Kind {
	case kindHello, kindProof:
		ep.handleHandshake(pk)
	case kindChallenge, kindSession:
		if c := ep.outbound[pk.Conn]; c != nil && c.remote == pk.From && c.hsReply != nil {
			f := c.hsReply
			c.hsReply = nil
			f.Set(pk.Data)
		}
	case kindCall:
		ep.handleCall(pk)
	case kindReply:
		ep.handleReply(pk)
	case kindClose:
		delete(ep.inbound, inKey{pk.From, pk.Conn})
	}
}

// handleHandshake serves handshake messages 1 and 3 in a worker process,
// billing each to the server.
func (ep *Endpoint) handleHandshake(pk *pkt) {
	if ep.cfg.Keys == nil {
		return // not accepting connections; silence, like a dark host
	}
	key := inKey{pk.From, pk.Conn}
	ep.k.Spawn("rpc-auth", func(p *sim.Proc) {
		if ep.cfg.Bill != nil {
			ep.cfg.Bill.Handshake(p)
		}
		switch pk.Kind {
		case kindHello:
			if ic := ep.inbound[key]; ic != nil && ic.box != nil {
				return // duplicate hello on an established connection
			}
			hs := secure.NewServerHandshake(ep.cfg.Keys)
			challenge, err := hs.Challenge(pk.Data)
			if err != nil {
				return // authentication failure: no reply, client times out
			}
			ic := ep.newConn(pk.From, pk.Conn, "")
			ic.accepted, ic.hs = true, hs
			ep.inbound[key] = ic
			ep.send(pk.From, &pkt{Conn: pk.Conn, Kind: kindChallenge, Data: challenge})
		case kindProof:
			ic := ep.inbound[key]
			if ic == nil {
				return
			}
			if ic.hs == nil {
				// Retransmitted proof for a handshake that already finished
				// (our final message was lost or duplicated in flight):
				// resend it so the client can complete.
				if ic.box != nil && ic.hsFinal != nil {
					ep.send(pk.From, &pkt{Conn: pk.Conn, Kind: kindSession, Data: append([]byte(nil), ic.hsFinal...)})
				}
				return
			}
			final, session, err := ic.hs.Complete(pk.Data)
			if err != nil {
				delete(ep.inbound, key)
				return
			}
			ic.user = ic.hs.User()
			ic.box = secure.NewSessionBox(session, secure.Acceptor)
			ic.hs = nil
			ic.hsFinal = append([]byte(nil), final...)
			ep.send(pk.From, &pkt{Conn: pk.Conn, Kind: kindSession, Data: final})
		}
	})
}

// handleCall decrypts, dispatches and answers one inbound call in a worker
// process. Calls arrive on inbound connections (a client calling the
// server) or on outbound ones (the server breaking a callback to us). The
// packet is opened where it lies and handed over to the handler with the
// request that aliases it.
func (ep *Endpoint) handleCall(pk *pkt) {
	c := ep.inbound[inKey{pk.From, pk.Conn}]
	if c == nil || c.box == nil {
		if c = ep.outbound[pk.Conn]; c == nil || c.remote != pk.From || c.box == nil {
			return // unknown or unauthenticated connection
		}
	}
	box, cache := c.box, c.cache
	plain, err := box.Open(pk.Data)
	if err != nil {
		return // tampered or replayed under the wrong key
	}
	seq, tc, req, err := decodeCall(plain)
	if err != nil {
		return
	}
	req.Owned = true
	if ep.cfg.Server == nil {
		return
	}
	// At-most-once: a retransmitted or duplicated call must not execute
	// again. Answer finished calls from the reply cache; stay silent while
	// the original is still executing (its reply will cover both frames).
	// The cached reply's head carries the original execution's service
	// time, so replays attribute latency truthfully.
	if r, ok := cache.done[seq]; ok {
		ep.dupSuppressed++
		ep.mReplays.Inc()
		ep.send(pk.From, &pkt{Conn: pk.Conn, Kind: kindReply, Data: box.Seal(r.head, r.bulk)})
		return
	}
	if cache.inflight[seq] {
		ep.dupSuppressed++
		ep.mDupSup.Inc()
		return
	}
	cache.inflight[seq] = true
	ep.callCounts[req.Op]++
	ep.callsTotal++
	ep.mInflight.Add(1)
	ep.calls.Put(received{c: c, seq: seq, tc: tc, req: req})
	ep.k.Spawn("rpc-worker", ep.work)
}

// received is a call waiting for its worker.
type received struct {
	c   *SimConn
	seq uint32
	tc  wire.TraceHeader
	req Request
}

// serveNext is every worker's body: it serves the oldest received call to
// its reply. handleCall queues each call and spawns its worker at the same
// instant, and processes spawned at one instant start in spawn order, so the
// k-th worker to start takes the k-th call, as Peer.dispatch hands each call
// to the next worker, and no worker needs a closure of its own.
func (ep *Endpoint) serveNext(p *sim.Proc) {
	rc, _ := ep.calls.TryGet()
	c, seq, req := rc.c, rc.seq, rc.req
	user := "" // a call arriving on a connection we dialed is the server's, not a user's
	if c.accepted {
		user = c.user
	}
	ctx := Ctx{User: user, Peer: ep.net.Node(c.remote).Name, Back: c, Proc: p}
	// Service time spans dispatch plus the bill: the whole interval this
	// server held the call, which the reply echoes to the client.
	resp, svc := c.serve(p, ep.cfg.Server, ctx, rc.tc, req, ep.cfg.Bill)
	e := wire.GetEncoder()
	encodeReplyHead(e, seq, svc, resp)
	c.cache.finish(seq, reply{head: append([]byte(nil), e.Buf()...), bulk: resp.Bulk})
	sealed := sealPacket(c.box, e, resp.Bulk)
	resp.Release() // the reply cache keeps a copy of the head, Body and all
	ep.send(c.remote, &pkt{Conn: c.id, Kind: kindReply, Data: sealed})
	ep.mInflight.Add(-1)
}

// handleReply hands a reply to the call this endpoint originated that is
// waiting for it — on an outbound connection, or a callback on an inbound one
// — opened where it lies and handed over with it.
func (ep *Endpoint) handleReply(pk *pkt) {
	c := ep.outbound[pk.Conn]
	if c == nil || c.remote != pk.From {
		c = ep.inbound[inKey{pk.From, pk.Conn}]
	}
	if c == nil || c.box == nil {
		return
	}
	plain, err := c.box.Open(pk.Data)
	if err != nil {
		return
	}
	seq, svc, resp, err := decodeReply(plain)
	if err != nil {
		return
	}
	resp.Owned = true
	if a, ok := c.take(seq); ok {
		a.f.TrySet(outcome{resp: resp, svc: svc, pkt: pk})
	}
}

// newConn returns the state both ends of a connection start from.
func (ep *Endpoint) newConn(remote netsim.NodeID, id uint64, user string) *SimConn {
	c := &SimConn{
		core: core[*attempt]{
			pending:  make(map[uint32]*attempt),
			attempts: ep.cfg.Retry.Attempts,
			timeout:  ep.cfg.CallTimeout,
		},
		ep:     ep,
		remote: remote,
		id:     id,
		user:   user,
		cache:  newReplyCache(),
	}
	c.obs.Store(&ep.obs)
	return c
}

// Dial establishes an authenticated connection to the endpoint on the
// remote node, performing the full four-message handshake in virtual time.
// It must be called from a simulated process.
func (ep *Endpoint) Dial(p *sim.Proc, remote netsim.NodeID, user string, key secure.Key) (*SimConn, error) {
	ep.nextConn++
	c := ep.newConn(remote, ep.nextConn, user)
	ep.outbound[c.id] = c
	box, err := dialHandshake(user, key, func(kind uint8, msg []byte) ([]byte, error) { return c.handshakeStep(p, kind, msg) })
	if err != nil {
		delete(ep.outbound, c.id)
		return nil, err
	}
	c.box = box
	return c, nil
}

// handshakeStep sends one handshake message and waits for its reply,
// retransmitting with backoff under the endpoint's retry policy. Each
// attempt sends a fresh copy of the message so an in-flight corruption
// fault cannot poison later retransmissions.
func (c *SimConn) handshakeStep(p *sim.Proc, kind uint8, data []byte) ([]byte, error) {
	for a := 0; a < c.ep.cfg.Retry.Attempts; a++ {
		if a > 0 {
			c.retryPause(p, "handshake kind", int(kind), a)
		}
		f := sim.NewFuture[[]byte](c.ep.k)
		c.hsReply = f
		c.ep.send(c.remote, &pkt{Conn: c.id, Kind: kind, Data: append([]byte(nil), data...)})
		c.ep.k.After(c.ep.cfg.CallTimeout, func() {
			if f.TrySet(nil) && c.hsReply == f {
				c.hsReply = nil
			}
		})
		if reply := f.Wait(p); reply != nil {
			return reply, nil
		}
	}
	return nil, fmt.Errorf("%w: handshake timeout to node %d", ErrUnreachable, c.remote)
}

// pause precedes attempt a (a >= 1) of a call of op: it implements carrier
// with retryPause.
func (c *SimConn) pause(p *sim.Proc, op Op, a int) { c.retryPause(p, "op", int(op), a) }

// retryPause counts and logs the retransmission that attempt a (a >= 1) is,
// then sleeps its backoff. what and n name the thing retried.
func (c *SimConn) retryPause(p *sim.Proc, what string, n, a int) {
	c.ep.retries++
	c.ep.mRetries.Inc()
	if fl := c.ep.flight; fl != nil {
		fl.Log(trace.EventRPCRetry, c.ep.node.Name,
			fmt.Sprintf("%s %d attempt %d to node %d", what, n, a+1, c.remote))
	}
	p.Sleep(c.ep.backoff(a))
}

// User returns the identity the connection authenticated as.
func (c *SimConn) User() string { return c.user }

// Call performs one RPC and waits (in virtual time) for the reply. Under a
// retry policy, unanswered attempts are retransmitted with exponential
// backoff and jitter; every attempt reuses the same sequence number, so the
// server's at-most-once cache executes the operation exactly once no matter
// how often frames are lost or duplicated in flight.
func (c *SimConn) Call(p *sim.Proc, req Request) (Response, error) {
	return c.call(c, p, req, false)
}

// CallBack places a call in the direction a callback travels: on the
// accepting end, the server breaking a promise, as impatiently as the call
// core's policy says; on the dialing end, an ordinary call — the client
// reaches the server the same way in both roles. It implements Backchannel.
func (c *SimConn) CallBack(p *sim.Proc, req Request) (Response, error) {
	return c.call(c, p, req, c.accepted)
}

// exchange sends one attempt of a call and parks p until its reply or its
// deadline resolves the attempt. It implements carrier.
func (c *SimConn) exchange(p *sim.Proc, sp *trace.Span, seq uint32, tc wire.TraceHeader, req Request, d time.Duration, callback bool) outcome {
	a := c.ep.attemptFor(c, seq, req.Op, callback)
	c.put(seq, a)
	// Re-encoding on retry is cheaper than keeping the plaintext alive
	// across the call; each attempt seals fresh (new nonce) regardless.
	e := wire.GetEncoder()
	encodeCallHead(e, seq, tc, req)
	reqPkt := &pkt{Conn: c.id, Kind: kindCall, Data: sealPacket(c.box, e, req.Bulk)}
	c.ep.send(c.remote, reqPkt)
	c.ep.k.AfterFire(d, a)
	out := a.f.Wait(p)
	a.waiting = false
	a.recycle()
	if out.err == nil {
		attribute(sp, reqPkt, out.pkt)
	}
	return out
}

// attempt is one attempt of a call placed on a SimConn: the slot the core's
// table holds under the call's sequence number, which the reply resolves,
// and the event the attempt's deadline fires. An endpoint pools its
// attempts. One goes back only when its caller has read the outcome and its
// deadline has fired, the last two things that can reach it: by then its
// sequence number has left the table, so no stale reply finds it, and no
// event of its own is pending.
type attempt struct {
	c        *SimConn
	seq      uint32
	op       Op
	callback bool
	f        sim.Future[outcome]
	waiting  bool // the caller has not read the outcome
	armed    bool // the deadline has not fired
}

// attemptFor takes an attempt from the pool for seq's call of op on c.
func (ep *Endpoint) attemptFor(c *SimConn, seq uint32, op Op, callback bool) *attempt {
	var a *attempt
	if n := len(ep.free); n > 0 {
		a = ep.free[n-1]
		ep.free[n-1] = nil
		ep.free = ep.free[:n-1]
	} else {
		a = new(attempt)
	}
	*a = attempt{c: c, seq: seq, op: op, callback: callback, waiting: true, armed: true}
	a.f.Reset(ep.k)
	return a
}

// Fire is the attempt's deadline: it times out the attempt unless its reply
// came first. It implements sim.Firer.
func (a *attempt) Fire() {
	a.armed = false
	if a.waiting && !a.f.Done() {
		if a.callback {
			a.f.Set(outcome{err: fmt.Errorf("%w: callback op %d", ErrTimeout, a.op)})
		} else {
			a.f.Set(outcome{err: fmt.Errorf("%w: op %d to node %d", ErrTimeout, a.op, a.c.remote)})
		}
		a.c.take(a.seq)
	}
	a.recycle()
}

// recycle drops the outcome once the caller has read it, so a reply's
// buffers are not kept until the deadline, and returns the attempt to its
// endpoint's pool once the deadline has fired too.
func (a *attempt) recycle() {
	if a.waiting {
		return
	}
	if a.armed {
		a.f.Reset(a.c.ep.k)
		return
	}
	ep := a.c.ep
	*a = attempt{}
	ep.free = append(ep.free, a)
}

// attribute stamps the network's share of a completed call on its span: the
// delays netsim accumulated on the request packet of the answered attempt and
// on the reply packet. With the service time the server echoed, which the
// call core stamps next, on a fault-free network every call is one attempt
// and the components sum exactly to the span's duration; under retries the
// reply may answer an earlier attempt, so attribution is approximate.
func attribute(sp *trace.Span, reqPkt, rp *pkt) {
	q, s, pr := reqPkt.queueDelay, reqPkt.serialDelay, reqPkt.propDelay
	if rp != nil {
		q += rp.queueDelay
		s += rp.serialDelay
		pr += rp.propDelay
	}
	sp.SetInt(trace.AttrNetQueueNs, int64(q))
	sp.SetInt(trace.AttrNetSerialNs, int64(s))
	sp.SetInt(trace.AttrNetPropNs, int64(pr))
}

// Close tears down the connection; the server forgets its state. The
// simulated network drops the replies of a closed connection, so calls still
// pending on it run to their deadlines, as they always have.
func (c *SimConn) Close() error {
	if _, first := c.shut(); first {
		c.ep.send(c.remote, &pkt{Conn: c.id, Kind: kindClose})
		delete(c.ep.outbound, c.id)
	}
	return nil
}

// BackUser returns the identity the connection authenticated as.
func (c *SimConn) BackUser() string { return c.user }
