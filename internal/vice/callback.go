package vice

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/wire"
)

// CallbackTable records callback promises: when a workstation fetches a
// file in revised mode, the server promises to notify it before the file
// changes. This inverts the prototype's check-on-open validation — the 65%
// of server calls that were cache-validity checks (§5.2) disappear, at the
// cost of server state and an invalidation message on each update (§3.2).
//
// It is one table under one lock, held only to read or change the table and
// never across a delivery. The break path coalesces all pending
// invalidations for one workstation into a single BulkBreak RPC: with a
// thousand clients a hot-file update costs one RPC per interested client,
// and overlapping updates share those RPCs instead of each paying full
// fan-out.
//
// The table is also where "does this cell run callbacks?" is decided, once:
// a prototype-mode server's table is off, and on a table that is off Promise
// and Break do nothing and the counters stay zero. Handlers call them
// unconditionally.
type CallbackTable struct {
	// Settings, fixed before the table is shared (newCallbackTable).
	on        bool
	unbatched bool            // one RPC per broken promise, sequential (ablation)
	window    time.Duration   // flusher linger before each drain
	metrics   *trace.Registry // break counts, fan-out and batch sizes; may be nil
	flight    *trace.Recorder // break-storm events; may be nil
	server    string          // owning server, for event attribution

	mu sync.Mutex
	// promises maps a file to its holders and when each registered. Order is
	// only ever compared inside one file's set.
	// guarded by mu
	promises map[proto.FID]map[rpc.Backchannel]int64
	regSeq   int64 // guarded by mu
	// queues holds, per workstation connection, the breaks accepted but not
	// yet delivered. A queue exists exactly while its flusher process runs.
	// guarded by mu
	queues map[rpc.Backchannel]*clientQueue
	// Cumulative counters; Reset leaves them alone.
	promised  int64 // guarded by mu
	breaks    int64 // guarded by mu
	breakRPCs int64 // guarded by mu
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

// stormFanout is the fan-out at which a single break counts as a storm and
// earns a flight-recorder event: one update invalidating this many
// workstations is the load pattern §3.2 warns callbacks add per mutation.
const stormFanout = 8

// newCallbackTable returns the empty table of a server configured by cfg —
// the one place a cell decides whether it runs callbacks (Mode) and how its
// breaks are delivered (UnbatchedBreaks, BreakWindow; Metrics, Flight and
// Name say where they are counted).
func newCallbackTable(cfg Config) *CallbackTable {
	window := cfg.BreakWindow
	if window <= 0 {
		window = DefaultBreakWindow
	}
	return &CallbackTable{
		on:        cfg.Mode == Revised,
		unbatched: cfg.UnbatchedBreaks,
		window:    window,
		metrics:   cfg.Metrics,
		flight:    cfg.Flight,
		server:    cfg.Name,
		promises:  make(map[proto.FID]map[rpc.Backchannel]int64),
		queues:    make(map[rpc.Backchannel]*clientQueue),
	}
}

// Promise records that the connection holds a valid copy of fid. Promises
// remember their registration order so breaks fire deterministically (map
// iteration order must never leak into the event schedule).
func (t *CallbackTable) Promise(fid proto.FID, back rpc.Backchannel) {
	if !t.on || back == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	set := t.promises[fid]
	if set == nil {
		set = make(map[rpc.Backchannel]int64)
		t.promises[fid] = set
	}
	if _, ok := set[back]; !ok {
		t.regSeq++
		set[back] = t.regSeq
		t.promised++
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
	t.promises = make(map[proto.FID]map[rpc.Backchannel]int64)
}

// Drop forgets all promises for one connection (teardown) without breaking.
func (t *CallbackTable) Drop(back rpc.Backchannel) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for fid, set := range t.promises {
		delete(set, back)
		if len(set) == 0 {
			delete(t.promises, fid)
		}
	}
}

// delivery is one broken promise on its way to the workstation holding it.
type delivery struct {
	back rpc.Backchannel
	seq  int64 // when back's promise was registered
	args proto.CallbackBreakArgs
}

// take removes the promises on tg's file, excluding skip's (the connection
// performing the update — its own cache entry is being replaced by the store
// itself), and appends a delivery for each to ds in registration order.
func (t *CallbackTable) take(ds []delivery, tg BreakTarget, skip rpc.Backchannel) []delivery {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := t.promises[tg.FID]
	if len(set) == 0 {
		return ds
	}
	// taken starts as ds's spare capacity, so the append that ends take moves
	// nothing unless taken outgrew it.
	taken := ds[len(ds):]
	for back, seq := range set {
		if back == skip {
			continue
		}
		taken = append(taken, delivery{back, seq, proto.CallbackBreakArgs{FID: tg.FID, Path: tg.Path}})
		delete(set, back)
	}
	slices.SortFunc(taken, func(a, b delivery) int { return cmp.Compare(a.seq, b.seq) })
	// What is left, if anything, is the updater's own promise, which it
	// keeps: its cache copy is the new version.
	if len(set) == 0 {
		delete(t.promises, tg.FID)
	}
	return append(ds, taken...)
}

// Break notifies every workstation holding a promise on a target, except
// the updater's own connection (skip), that its copy is invalid; one update
// may name several files (a rename touches two directories; a remove touches
// the directory and the victim). All invalidations are delivered before
// Break returns, but deliveries to one workstation coalesce with any other
// breaks pending for it — its own or a concurrent update's — into a single
// BulkBreak RPC, and deliveries to distinct workstations proceed in parallel
// flusher processes. Under a process without a kernel (a real worker) the
// deliveries are one call each, in turn, nested under p's span. It must be
// called without server locks held: callback calls park the worker process.
func (t *CallbackTable) Break(p *sim.Proc, skip rpc.Backchannel, targets ...BreakTarget) {
	if !t.on {
		return
	}
	// Room for the usual few holders, which then cost no allocation.
	deliveries := make([]delivery, 0, 4)
	for _, tg := range targets {
		n := len(deliveries)
		deliveries = t.take(deliveries, tg, skip)
		n = len(deliveries) - n
		if t.metrics != nil {
			// Fan-out: how many workstations one update invalidates — the
			// server-load term callbacks add per mutation (§3.2).
			t.metrics.Counter(trace.MetricViceCallbackBreaks).Add(int64(n))
			t.metrics.Histogram(trace.MetricViceCallbackFanout).ObserveN(int64(n))
		}
		if t.flight != nil && n >= stormFanout {
			t.flight.Log(trace.EventViceCallbackStorm, t.server,
				fmt.Sprintf("break of %s fans out to %d workstations", tg.Path, n))
		}
	}
	t.mu.Lock()
	t.breaks += int64(len(deliveries))
	t.mu.Unlock()
	if len(deliveries) == 0 {
		return
	}

	k := p.Kernel()
	if t.unbatched || k == nil {
		// Legacy path: one RPC per broken promise, strictly sequential.
		// Real transports (a process without a kernel) also take it —
		// coalescing needs the simulation kernel's futures.
		for _, dv := range deliveries {
			t.countRPC(1)
			t.revoke(p, dv.back, dv.args)
		}
		return
	}

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
	breakCall(p, back, proto.OpCallbackBreak, args)
}

// breakCall places one break call of op, whose arguments are m, to back. The
// Body is encoded into a pooled encoder lent to the call until CallBack
// returns (rpc.Request). A dead workstation just times out; the promise is
// already gone.
func breakCall[M wire.Message](p *sim.Proc, back rpc.Backchannel, op uint16, m M) {
	e := wire.MarshalPooled(m)
	resp, _ := back.CallBack(p, rpc.Request{Op: rpc.Op(op), Body: e.Buf()})
	wire.PutEncoder(e)
	resp.Release()
}

// countRPC bumps the delivered-RPC counters for one break RPC carrying n
// invalidations.
func (t *CallbackTable) countRPC(n int) {
	t.mu.Lock()
	t.breakRPCs++
	t.mu.Unlock()
	if t.metrics != nil {
		t.metrics.Counter(trace.MetricViceCallbackBreakRPCs).Add(1)
		t.metrics.Histogram(trace.MetricViceCallbackBatch).ObserveN(int64(n))
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
		t.mu.Unlock()
		// Linger briefly: breaks from updates completing in this window
		// ride the same RPC instead of their own.
		fp.Sleep(t.window)
		t.mu.Lock()
		items := q.pending
		q.pending = nil
		t.mu.Unlock()
		for len(items) > 0 {
			chunk := items
			if len(chunk) > proto.MaxBulkItems {
				chunk = chunk[:proto.MaxBulkItems]
			}
			items = items[len(chunk):]
			t.countRPC(len(chunk))
			if len(chunk) == 1 {
				// A lone break uses the original message so single-update
				// traffic is byte-identical to the unbatched protocol.
				breakCall(fp, back, proto.OpCallbackBreak, chunk[0].args)
			} else {
				args := proto.BulkBreakArgs{Items: make([]proto.CallbackBreakArgs, 0, len(chunk))}
				for _, it := range chunk {
					args.Items = append(args.Items, it.args)
				}
				breakCall(fp, back, proto.OpBulkBreak, args)
			}
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
	return t.promised, t.breaks
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
	for _, set := range t.promises {
		n += len(set)
	}
	return n
}
