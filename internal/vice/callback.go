package vice

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// CallbackTable records callback promises: when a workstation fetches a
// file in revised mode, the server promises to notify it before the file
// changes. This inverts the prototype's check-on-open validation — the 65%
// of server calls that were cache-validity checks (§5.2) disappear, at the
// cost of server state and an invalidation message on each update (§3.2).
//
// Promises are sharded by volume so concurrent workers touching different
// volumes do not contend on one lock, and the break path coalesces all
// pending invalidations for one workstation into a single BulkBreak RPC:
// with a thousand clients a hot-file update costs one RPC per interested
// client, and overlapping updates share those RPCs instead of each paying
// full fan-out.
//
// The table is also where "does this cell run callbacks?" is decided, once:
// a prototype-mode server's table is off, and on a table that is off Promise,
// Break and BreakBatch do nothing and the counters stay zero. Handlers call
// them unconditionally.
type CallbackTable struct {
	on bool // fixed before the table is shared (vice.New)

	mu sync.Mutex
	// shards holds per-volume promise state; entries are created on first
	// promise and survive until Reset. Keyed by FID.Volume.
	// guarded by mu
	shards map[uint32]*cbShard
	// queues holds, per workstation connection, the breaks accepted but not
	// yet delivered. A queue exists exactly while its flusher process runs.
	// guarded by mu
	queues    map[rpc.Backchannel]*clientQueue
	breaks    int64           // guarded by mu
	breakRPCs int64           // guarded by mu
	unbatched bool            // guarded by mu
	window    time.Duration   // guarded by mu — flusher linger before each drain
	metrics   *trace.Registry // guarded by mu
	flight    *trace.Recorder // guarded by mu — break-storm events
	server    string          // guarded by mu — owning server, for event attribution
	// promisedBase carries cumulative promise counts across Reset, which
	// discards the shards (and their live counters) wholesale.
	promisedBase int64 // guarded by mu
}

// cbShard is one volume's slice of the promise table. Shards have their own
// locks; the table lock is only used to find a shard (and for the delivery
// queues), never wrapped around long work.
type cbShard struct {
	mu sync.Mutex
	// -> registration order
	// guarded by mu
	promises map[proto.FID]map[rpc.Backchannel]int64
	regSeq   int64 // guarded by mu
	promised int64 // guarded by mu
}

// breakItem is one pending invalidation plus the future its originating
// update waits on: an update's reply must not race ahead of its
// invalidations (§3.2 visibility), so Break resolves only after delivery.
type breakItem struct {
	args proto.CallbackBreakArgs
	done *sim.Future[struct{}]
}

// clientQueue accumulates breaks for one workstation while a BulkBreak RPC
// to it is in flight; the flusher drains it in deterministic arrival order.
type clientQueue struct {
	pending []breakItem
}

// BreakTarget names one file an update invalidates.
type BreakTarget struct {
	FID  proto.FID
	Path string
}

// DefaultBreakWindow is how long a flusher lingers before draining its
// queue: the coalescing window in which concurrent updates' breaks for the
// same workstation pile onto one BulkBreak RPC. Every update already pays a
// store's worth of latency before its breaks start, so a few milliseconds
// more buys an RPC-count collapse under load while staying far below
// human-visible delay. Deliveries still complete before the update replies,
// so widening the window (Config.BreakWindow) trades update latency for
// fewer RPCs — E14 sweeps that trade-off — without weakening visibility.
const DefaultBreakWindow = 10 * time.Millisecond

// NewCallbackTable returns an empty table, switched on.
func NewCallbackTable() *CallbackTable {
	return &CallbackTable{
		on:     true,
		shards: make(map[uint32]*cbShard),
		queues: make(map[rpc.Backchannel]*clientQueue),
		window: DefaultBreakWindow,
	}
}

// shard returns the shard owning fid's volume, creating it on first use.
func (t *CallbackTable) shard(vol uint32) *cbShard {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.shards[vol]
	if s == nil {
		s = &cbShard{promises: make(map[proto.FID]map[rpc.Backchannel]int64)}
		t.shards[vol] = s
	}
	return s
}

// Promise records that the connection holds a valid copy of fid. Promises
// remember their registration order so breaks fire deterministically (map
// iteration order must never leak into the event schedule).
func (t *CallbackTable) Promise(fid proto.FID, back rpc.Backchannel) {
	if !t.on || back == nil {
		return
	}
	s := t.shard(fid.Volume)
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.promises[fid]
	if set == nil {
		set = make(map[rpc.Backchannel]int64)
		s.promises[fid] = set
	}
	if _, ok := set[back]; !ok {
		s.regSeq++
		set[back] = s.regSeq
		s.promised++
	}
}

// Reset wipes every promise without notification: the server crashed and
// its volatile callback state is gone. Clients discover this through TTL
// revalidation or reconnection; cumulative counters survive the restart.
// In-flight delivery queues are left to their flushers, which drain against
// the dead transport and release any waiting updates.
func (t *CallbackTable) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.shards {
		t.promisedBase += s.promisedCount()
	}
	t.shards = make(map[uint32]*cbShard)
}

// Drop forgets all promises for one connection (teardown) without breaking.
func (t *CallbackTable) Drop(back rpc.Backchannel) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.shards {
		s.dropConn(back)
	}
}

// dropConn removes every promise held by back from the shard.
func (s *cbShard) dropConn(back rpc.Backchannel) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for fid, set := range s.promises {
		delete(set, back)
		if len(set) == 0 {
			delete(s.promises, fid)
		}
	}
}

// take removes and returns the backchannels holding promises on fid,
// excluding skip (the connection performing the update — its own cache
// entry is being replaced by the store itself).
func (t *CallbackTable) take(fid proto.FID, skip rpc.Backchannel) []rpc.Backchannel {
	s := t.shard(fid.Volume)
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.promises[fid]
	if len(set) == 0 {
		return nil
	}
	type reg struct {
		back rpc.Backchannel
		seq  int64
	}
	var regs []reg
	for back, seq := range set {
		if back == skip {
			continue
		}
		regs = append(regs, reg{back, seq})
		delete(set, back)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].seq < regs[j].seq })
	out := make([]rpc.Backchannel, 0, len(regs))
	for _, r := range regs {
		out = append(out, r.back)
	}
	if skip != nil {
		if _, ok := set[skip]; ok {
			// The updater keeps its promise: its cache copy is the new version.
			return out
		}
	}
	if len(set) == 0 {
		delete(s.promises, fid)
	}
	return out
}

// SetMetrics attaches a metrics registry recording break counts and the
// fan-out distribution of each break. Nil detaches.
func (t *CallbackTable) SetMetrics(r *trace.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.metrics = r
}

// stormFanout is the fan-out at which a single break counts as a storm and
// earns a flight-recorder event: one update invalidating this many
// workstations is the load pattern §3.2 warns callbacks add per mutation.
const stormFanout = 8

// SetFlight attaches a flight recorder (and the owning server's name, for
// attribution) that receives an event whenever one break fans out to
// stormFanout or more workstations. Nil detaches.
func (t *CallbackTable) SetFlight(fl *trace.Recorder, server string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flight = fl
	t.server = server
}

// SetUnbatched forces the legacy one-RPC-per-promise break path (the
// pre-batching design, kept for ablation experiments).
func (t *CallbackTable) SetUnbatched(v bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.unbatched = v
}

// SetWindow sets the coalescing window (d <= 0 restores the default). The
// window bounds how long a broken promise waits for companions, and hence
// how much extra latency an update accepts in exchange for fewer RPCs.
func (t *CallbackTable) SetWindow(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d <= 0 {
		d = DefaultBreakWindow
	}
	t.window = d
}

// Break notifies every workstation holding a promise on fid, except the
// updater's own connection, that its copy is invalid. It must be called
// without server locks held: callback calls park the worker process.
func (t *CallbackTable) Break(p *sim.Proc, fid proto.FID, path string, skip rpc.Backchannel) {
	t.BreakBatch(p, []BreakTarget{{FID: fid, Path: path}}, skip)
}

// BreakBatch breaks promises on several files from one update (a rename
// touches two directories; a remove touches the directory and the victim).
// All invalidations are delivered before BreakBatch returns, but deliveries
// to one workstation coalesce with any other breaks pending for it — its
// own or a concurrent update's — into a single BulkBreak RPC, and
// deliveries to distinct workstations proceed in parallel flusher
// processes. Must be called without server locks held.
func (t *CallbackTable) BreakBatch(p *sim.Proc, targets []BreakTarget, skip rpc.Backchannel) {
	if !t.on {
		return
	}
	type delivery struct {
		back rpc.Backchannel
		args proto.CallbackBreakArgs
	}
	var deliveries []delivery
	t.mu.Lock()
	m := t.metrics
	fl := t.flight
	server := t.server
	unbatched := t.unbatched
	t.mu.Unlock()
	for _, tg := range targets {
		backs := t.take(tg.FID, skip)
		if m != nil {
			// Fan-out: how many workstations one update invalidates — the
			// server-load term callbacks add per mutation (§3.2).
			m.Counter(trace.MetricViceCallbackBreaks).Add(int64(len(backs)))
			m.Histogram(trace.MetricViceCallbackFanout).ObserveN(int64(len(backs)))
		}
		if fl != nil && len(backs) >= stormFanout {
			fl.Log(trace.EventViceCallbackStorm, server,
				fmt.Sprintf("break of %s fans out to %d workstations", tg.Path, len(backs)))
		}
		for _, back := range backs {
			deliveries = append(deliveries,
				delivery{back, proto.CallbackBreakArgs{FID: tg.FID, Path: tg.Path}})
		}
	}
	t.mu.Lock()
	t.breaks += int64(len(deliveries))
	t.mu.Unlock()
	if len(deliveries) == 0 {
		return
	}

	if unbatched || p == nil {
		// Legacy path: one RPC per broken promise, strictly sequential.
		// Real transports (p == nil) also take it — coalescing needs the
		// simulation kernel's futures.
		for _, dv := range deliveries {
			t.countRPC(m, 1)
			t.revoke(p, dv.back, dv.args)
		}
		return
	}

	k := p.Kernel()
	waits := make([]*sim.Future[struct{}], 0, len(deliveries))
	t.mu.Lock()
	for _, dv := range deliveries {
		f := sim.NewFuture[struct{}](k)
		waits = append(waits, f)
		q := t.queues[dv.back]
		if q == nil {
			// No flusher running for this workstation: start one. While it
			// is busy delivering, later breaks pile onto q.pending and ride
			// the next RPC.
			q = &clientQueue{}
			t.queues[dv.back] = q
			back := dv.back
			k.Spawn("cb-flush", func(fp *sim.Proc) { t.flush(fp, back) })
		}
		q.pending = append(q.pending, breakItem{args: dv.args, done: f})
	}
	t.mu.Unlock()
	for _, f := range waits {
		f.Wait(p)
	}
}

// revoke tells one workstation, in a call of its own, that its copy is
// invalid: the unbatched delivery of a broken promise, and what a store does
// to its own updater when a later store overtook it. A dead workstation just
// times out; the promise is already gone.
func (t *CallbackTable) revoke(p *sim.Proc, back rpc.Backchannel, args proto.CallbackBreakArgs) {
	if !t.on || back == nil {
		return
	}
	_, _ = back.CallBack(p, rpc.Request{Op: rpc.Op(proto.OpCallbackBreak), Body: proto.Marshal(args)})
}

// countRPC bumps the delivered-RPC counters for one break RPC carrying n
// invalidations.
func (t *CallbackTable) countRPC(m *trace.Registry, n int) {
	t.mu.Lock()
	t.breakRPCs++
	t.mu.Unlock()
	if m != nil {
		m.Counter(trace.MetricViceCallbackBreakRPCs).Add(1)
		m.Histogram(trace.MetricViceCallbackBatch).ObserveN(int64(n))
	}
}

// flush drains one workstation's pending breaks, one bulk RPC per drain,
// until the queue stays empty. It runs as its own kernel process so
// deliveries to distinct workstations overlap.
func (t *CallbackTable) flush(fp *sim.Proc, back rpc.Backchannel) {
	for {
		t.mu.Lock()
		q := t.queues[back]
		if len(q.pending) == 0 {
			delete(t.queues, back)
			t.mu.Unlock()
			return
		}
		window := t.window
		t.mu.Unlock()
		// Linger briefly: breaks from updates completing in this window
		// ride the same RPC instead of their own.
		fp.Sleep(window)
		t.mu.Lock()
		items := q.pending
		q.pending = nil
		m := t.metrics
		t.mu.Unlock()
		for len(items) > 0 {
			chunk := items
			if len(chunk) > proto.MaxBulkItems {
				chunk = chunk[:proto.MaxBulkItems]
			}
			items = items[len(chunk):]
			var req rpc.Request
			if len(chunk) == 1 {
				// A lone break uses the original message so single-update
				// traffic is byte-identical to the unbatched protocol.
				req = rpc.Request{
					Op:   rpc.Op(proto.OpCallbackBreak),
					Body: proto.Marshal(chunk[0].args),
				}
			} else {
				args := proto.BulkBreakArgs{Items: make([]proto.CallbackBreakArgs, 0, len(chunk))}
				for _, it := range chunk {
					args.Items = append(args.Items, it.args)
				}
				req = rpc.Request{Op: rpc.Op(proto.OpBulkBreak), Body: proto.Marshal(args)}
			}
			t.countRPC(m, len(chunk))
			// A dead workstation just times out; the promise is already gone.
			_, _ = back.CallBack(fp, req)
			for _, it := range chunk {
				it.done.Set(struct{}{})
			}
		}
	}
}

// Stats reports cumulative promises granted and callbacks broken.
func (t *CallbackTable) Stats() (promised, breaks int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	promised = t.promisedBase
	for _, s := range t.shards {
		promised += s.promisedCount()
	}
	return promised, t.breaks
}

// promisedCount reports the shard's cumulative promises granted.
func (s *cbShard) promisedCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promised
}

// BreakRPCs reports cumulative callback RPCs sent (each may carry many
// broken promises; Stats' breaks count divided by this is the coalescing
// ratio E14 measures).
func (t *CallbackTable) BreakRPCs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.breakRPCs
}

// Outstanding reports the number of live promises (server state size).
func (t *CallbackTable) Outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.shards {
		n += s.outstanding()
	}
	return n
}

// outstanding reports the shard's live promise count.
func (s *cbShard) outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, set := range s.promises {
		n += len(set)
	}
	return n
}
