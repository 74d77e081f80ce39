package main

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/store"
	"itcfs/internal/venus"
)

// The traced run measures each layer from outside, at the public seams the
// daemon and the client are assembled from. Every interposer here checks the
// tracer's switch first and is a plain pass-through while it is off, so one
// traced process can alternate untraced and traced rounds and report the
// difference as the tracing overhead.
//
//	S1 tracedConn    venus.Conn from venus.Config.Connect   rpc.call spans
//	S2 tracedNet     the net.Conn under DialPeer/AcceptPeer net.* counts
//	S3 tracedServer  rpc.Server in front of vice's          vice.dispatch spans
//	   tracedBack    rpc.Backchannel per accepted peer      vice.break_wait spans
//	S4 tracedStore   store.Store in vice.Config.Store       store.* spans
//	S5 tracedFS      store.FS under walstore.Open           fs.* spans
//	S6 tracedBreak   the client's callback handler          venus.break_handler spans

// Span names (the benchmark's own; program-internal spans are a later issue).
const (
	spAPI         = "api"
	spRPCCall     = "rpc.call"
	spDispatch    = "vice.dispatch"
	spBreakWait   = "vice.break_wait"
	spBreakHandle = "venus.break_handler"
	spCommit      = "store.commit"
	spSync        = "store.sync"
	spCheckpoint  = "store.checkpoint"
	spStoreOther  = "store.other"
	spAppend      = "fs.append"
	spFsync       = "fs.fsync"
	spFSOther     = "fs.other"
)

// Span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the span that caused this one (0 = unknown, which
// happens below vice.dispatch when two dispatches overlap).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// agg is the always-kept summary of one span name: count, total and every
// duration (for percentiles). Full spans are kept only for sampled ops.
type agg struct {
	n    int64
	ns   int64
	samp samples
}

const (
	maxKeptSpans = 200_000
	// spanKeepEvery: above the cap's comfort zone, one op in this many keeps
	// its full span tree; counts and durations are always kept.
	spanKeepEvery = 64
)

type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64

	mu    sync.Mutex
	aggs  map[string]*agg // guarded by mu
	spans []Span          // guarded by mu

	// S1: payload bytes carried by calls, both directions.
	callBytes atomic.Int64

	// S2
	netWrites, netReads atomic.Int64
	netWriteBytes       atomic.Int64
	netWriteNs          atomic.Int64

	// S3 concurrency
	active, maxActive atomic.Int64
	curDispatch       atomic.Uint64 // id of the (a) dispatch in flight
	curDispatchOp     atomic.Uint64
	curStore          atomic.Uint64 // id of the (a) store.* span in flight
}

func newTracer() *tracer { return &tracer{aggs: make(map[string]*agg)} }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// record files one finished span.
func (t *tracer) record(id, parent, op uint64, name, sub, layer string, start, end int64) {
	key := name
	if sub != "" {
		key = name + "." + sub
	}
	t.mu.Lock()
	a := t.aggs[key]
	if a == nil {
		a = &agg{}
		t.aggs[key] = a
	}
	a.n++
	a.ns += end - start
	a.samp = append(a.samp, end-start)
	if op != 0 && op%spanKeepEvery == 0 && len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: key, Layer: layer, Start: start, End: end})
	}
	t.mu.Unlock()
}

// get returns the summary of one span name (zero if never recorded).
func (t *tracer) get(key string) agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[key]; a != nil {
		return agg{n: a.n, ns: a.ns, samp: a.samp.sorted()}
	}
	return agg{}
}

// sum adds up every span name with the given prefix ("rpc.call" matches
// rpc.call.fetch, rpc.call.store, ...).
func (t *tracer) sum(prefix string) (n, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, a := range t.aggs {
		if k == prefix || (len(k) > len(prefix) && k[:len(prefix)] == prefix && k[len(prefix)] == '.') {
			n += a.n
			ns += a.ns
		}
	}
	return n, ns
}

func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func opName(op rpc.Op) string {
	switch uint16(op) {
	case proto.OpFetch:
		return "fetch"
	case proto.OpStore:
		return "store"
	case proto.OpFetchStatus:
		return "status"
	}
	return "other"
}

// S1: the client side of every RPC.
type tracedConn struct {
	inner venus.Conn
	cli   *client
	tr    *tracer
}

func (c *tracedConn) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	if !c.tr.on.Load() {
		return c.inner.Call(p, req)
	}
	id := c.tr.newID()
	c.cli.curCall.Store(id)
	start := now()
	resp, err := c.inner.Call(p, req)
	end := now()
	c.tr.callBytes.Add(int64(len(req.Body) + len(req.Bulk) + len(resp.Body) + len(resp.Bulk)))
	c.tr.record(id, c.cli.curAPI.Load(), c.cli.curOp.Load(), spRPCCall, opName(req.Op), "rpc", start, end)
	return resp, err
}

// S2: the byte stream under a Peer. Loopback TCP, so times are the
// kernel's socket path, not a network's.
type tracedNet struct {
	inner io.ReadWriteCloser
	tr    *tracer
}

func (n *tracedNet) Read(b []byte) (int, error) {
	k, err := n.inner.Read(b)
	if n.tr.on.Load() {
		n.tr.netReads.Add(1)
	}
	return k, err
}

func (n *tracedNet) Write(b []byte) (int, error) {
	if !n.tr.on.Load() {
		return n.inner.Write(b)
	}
	start := now()
	k, err := n.inner.Write(b)
	n.tr.netWriteNs.Add(now() - start)
	n.tr.netWrites.Add(1)
	n.tr.netWriteBytes.Add(int64(k))
	return k, err
}

func (n *tracedNet) Close() error { return n.inner.Close() }

// S3: the server side of every RPC. The wrapping rpc.Server forwards
// everything to vice's dispatcher, handing handlers one stable timing
// Backchannel per accepted peer (the callback table keys promises by it).
type tracedServer struct {
	tr    *tracer
	inner *rpc.Server
	cell  *cell

	mu    sync.RWMutex
	backs map[rpc.Backchannel]*tracedBack // guarded by mu
}

func (s *tracedServer) backFor(peer rpc.Backchannel) *tracedBack {
	s.mu.RLock()
	b := s.backs[peer]
	s.mu.RUnlock()
	return b
}

func (s *tracedServer) addBack(peer rpc.Backchannel) *tracedBack {
	b := &tracedBack{inner: peer, tr: s.tr}
	s.mu.Lock()
	s.backs[peer] = b
	s.mu.Unlock()
	return b
}

func (s *tracedServer) dropBack(peer rpc.Backchannel) {
	s.mu.Lock()
	delete(s.backs, peer)
	s.mu.Unlock()
}

func (s *tracedServer) dispatch(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	if b := s.backFor(ctx.Back); b != nil {
		ctx.Back = b
	}
	if !s.tr.on.Load() {
		return s.inner.Dispatch(ctx, req)
	}
	id := s.tr.newID()
	var parent, op uint64
	if cli := s.cell.clientOf(ctx.User); cli != nil {
		parent, op = cli.curCall.Load(), cli.curOp.Load()
	}
	n := s.tr.active.Add(1)
	for {
		m := s.tr.maxActive.Load()
		if n <= m || s.tr.maxActive.CompareAndSwap(m, n) {
			break
		}
	}
	s.tr.curDispatch.Store(id)
	s.tr.curDispatchOp.Store(op)
	start := now()
	resp := s.inner.Dispatch(ctx, req)
	end := now()
	s.tr.active.Add(-1)
	s.tr.record(id, parent, op, spDispatch, opName(req.Op), "vice", start, end)
	return resp
}

// under returns the dispatch a store- or fs-level span belongs to, known
// only while exactly one dispatch is in flight.
func (t *tracer) under() (parent, op uint64) {
	if t.active.Load() == 1 {
		return t.curDispatch.Load(), t.curDispatchOp.Load()
	}
	return 0, 0
}

type tracedBack struct {
	inner rpc.Backchannel
	tr    *tracer
}

func (b *tracedBack) CallBack(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	if !b.tr.on.Load() {
		return b.inner.CallBack(p, req)
	}
	parent, op := b.tr.under()
	start := now()
	resp, err := b.inner.CallBack(p, req)
	b.tr.record(b.tr.newID(), parent, op, spBreakWait, "", "vice", start, now())
	return resp, err
}

func (b *tracedBack) BackUser() string { return b.inner.BackUser() }

// S4: the store as vice sees it.
type tracedStore struct {
	inner store.Store
	tr    *tracer
}

func (s *tracedStore) timed(name string, fn func() error) error {
	if !s.tr.on.Load() {
		return fn()
	}
	id := s.tr.newID()
	parent, op := s.tr.under()
	s.tr.curStore.Store(id)
	start := now()
	err := fn()
	s.tr.record(id, parent, op, name, "", "store", start, now())
	return err
}

func (s *tracedStore) BeginVolume(id uint32, image []byte) error {
	return s.timed(spStoreOther, func() error { return s.inner.BeginVolume(id, image) })
}
func (s *tracedStore) DropVolume(id uint32) error {
	return s.timed(spStoreOther, func() error { return s.inner.DropVolume(id) })
}
func (s *tracedStore) Commit(c store.Commit) error {
	return s.timed(spCommit, func() error { return s.inner.Commit(c) })
}
func (s *tracedStore) PutLoc(entries []proto.LocEntry, remove []string) error {
	return s.timed(spStoreOther, func() error { return s.inner.PutLoc(entries, remove) })
}
func (s *tracedStore) PutProt(m prot.Mutation) error {
	return s.timed(spStoreOther, func() error { return s.inner.PutProt(m) })
}
func (s *tracedStore) Sync() error { return s.timed(spSync, s.inner.Sync) }
func (s *tracedStore) Recover() (*store.Recovery, error) {
	return s.inner.Recover()
}
func (s *tracedStore) Checkpoint(cp store.Checkpoint) error {
	return s.timed(spCheckpoint, func() error { return s.inner.Checkpoint(cp) })
}
func (s *tracedStore) Close() error { return s.inner.Close() }

// S5: the file system as walstore sees it.
type tracedFS struct {
	inner store.FS
	tr    *tracer
}

func (f *tracedFS) timed(name string, fn func() error) error {
	if !f.tr.on.Load() {
		return fn()
	}
	var parent uint64
	_, op := f.tr.under()
	if op != 0 {
		parent = f.tr.curStore.Load()
	}
	start := now()
	err := fn()
	f.tr.record(f.tr.newID(), parent, op, name, "", "fs", start, now())
	return err
}

func (f *tracedFS) Open(name string) (store.File, error) {
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: inner, fs: f}, nil
}
func (f *tracedFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }
func (f *tracedFS) WriteFileAtomic(name string, data []byte) error {
	return f.timed(spFSOther, func() error { return f.inner.WriteFileAtomic(name, data) })
}
func (f *tracedFS) Truncate(name string, size int64) error {
	return f.timed(spFSOther, func() error { return f.inner.Truncate(name, size) })
}
func (f *tracedFS) Remove(name string) error { return f.inner.Remove(name) }

type tracedFile struct {
	inner store.File
	fs    *tracedFS
}

func (f *tracedFile) Append(b []byte) error {
	return f.fs.timed(spAppend, func() error { return f.inner.Append(b) })
}
func (f *tracedFile) Sync() error  { return f.fs.timed(spFsync, f.inner.Sync) }
func (f *tracedFile) Close() error { return f.inner.Close() }

// S6: the client's callback handler.
func tracedBreak(tr *tracer, h rpc.HandlerFunc) rpc.HandlerFunc {
	return func(ctx rpc.Ctx, req rpc.Request) rpc.Response {
		if !tr.on.Load() {
			return h(ctx, req)
		}
		parent, op := tr.under()
		start := now()
		resp := h(ctx, req)
		tr.record(tr.newID(), parent, op, spBreakHandle, "", "venus", start, now())
		return resp
	}
}
