package harness

import (
	"fmt"
	"math/rand"
	"time"

	"itcfs"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/workload"
)

// E14 — scalability sweep. The paper's revised design exists to push "a
// server load of 20 typical users per cluster server" (§5.2) further; the
// two remaining storms at scale are callback fan-out (one RPC per broken
// promise per mutation) and revalidation (one TestValid per cached entry
// per sweep). E14 drives 100/300/1000 Venus instances through a seeded
// open/write/revalidate mix in virtual time, once with the batched
// BulkBreak/BulkTestValid plane and once with the legacy per-promise,
// per-entry protocol, and reports server utilization, p90 open latency,
// callback RPCs per broken promise, and revalidation round trips.

// E14Config sizes the scalability sweep.
type E14Config struct {
	Clients []int // client counts to sweep (e.g. 100, 300, 1000)
	Seed    int64
	Scale   workload.ScaleConfig // per-client mix (Seed field is overridden)
	// CallbackTTL bounds promise trust so the periodic sweeps have entries
	// to revalidate.
	CallbackTTL time.Duration
}

// DefaultE14 returns the standard configuration.
func DefaultE14() E14Config {
	return E14Config{
		Clients: []int{100, 300, 1000},
		Seed:    14,
		Scale:   workload.DefaultScale(14),
		// Above the sweep cadence (SweepEvery ops of mean Think), so the
		// forced sweeps refresh promises before they lapse and opens almost
		// never pay a one-off validation.
		CallbackTTL: 4 * time.Hour,
	}
}

// e14Side is one (client count, protocol) measurement.
type e14Side struct {
	util       float64       // server CPU utilization over the run
	p90        time.Duration // p90 venus.open latency
	breaks     int64         // promises broken
	breakRPCs  int64         // callback RPCs delivering them
	revalRPCs  int64         // revalidation round trips (TestValid + BulkTestValid)
	revalItems int64         // cached entries revalidated by sweeps
	elapsed    time.Duration // virtual time the client phase took
	cache      cacheBytes    // what the caches hold at the end
}

// E14Scalability runs the sweep and reports unbatched vs. batched columns
// per client count.
func E14Scalability(cfg E14Config) (*Report, error) {
	if len(cfg.Clients) == 0 {
		cfg = DefaultE14()
	}
	r := newReport("E14", "scalability: batched callback breaks + bulk revalidation",
		"callbacks add an invalidation message on each update and state on the server (§3.2); "+
			"batching both planes is what lets a cluster server face hundreds of Venera",
		"clients · metric", "unbatched", "batched")
	for _, n := range cfg.Clients {
		var sides [2]e14Side
		for i, batched := range []bool{false, true} {
			s, err := e14Run(cfg, n, batched)
			if err != nil {
				return nil, err
			}
			sides[i] = s
		}
		un, ba := sides[0], sides[1]
		label := func(metric string) string { return fmt.Sprintf("%d · %s", n, metric) }
		key := func(format string) string { return fmt.Sprintf(format, n) }
		r.row(label("server CPU util"), share(key("util_unbatched_%d"), un.util), share(key("util_batched_%d"), ba.util))
		r.row(label("p90 open latency"), millis(key("p90_unbatched_ms_%d"), un.p90), millis(key("p90_batched_ms_%d"), ba.p90))
		r.row(label("promises broken"), count("", un.breaks), count("", ba.breaks))
		r.row(label("callback RPCs"), count(key("break_rpcs_unbatched_%d"), un.breakRPCs), count(key("break_rpcs_batched_%d"), ba.breakRPCs))
		r.addRow(label("RPCs per break"), ratio(un.breakRPCs, un.breaks), ratio(ba.breakRPCs, ba.breaks))
		r.row(label("revalidation RPCs"), count(key("reval_rpcs_unbatched_%d"), un.revalRPCs), count(key("reval_rpcs_batched_%d"), ba.revalRPCs))
		r.row(label("entries revalidated"), count("", un.revalItems), count("", ba.revalItems))
		if ba.breakRPCs > 0 {
			r.Metrics[key("break_rpc_reduction_%d")] = float64(un.breakRPCs) / float64(ba.breakRPCs)
		}
	}
	return r, nil
}

func ratio(a, b int64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// A scale cell carries the batched E14 mix, one scaleShard per cluster. E14's
// sweep (e14Run: one cluster, every client arriving at once, either protocol)
// and the kernel scale bench (scaleRun: a cluster per scaleClusterSize
// clients, arrivals ramped) are two thin callers over the three steps below;
// they stay two because they differ in what they measure and in the names
// and seeds the committed numbers were recorded under, not in how the cell is
// built.

// scaleShard is one cluster's share of a scale cell.
type scaleShard struct {
	// user is the account every client of the cluster logs in as; its home
	// volume, on the cluster's own server, holds the shared pool.
	user string
	// setup names the station that writes the pool and then stays idle, so
	// every client starts cold and every client's copy is broken when a
	// writer strikes.
	setup string
	mix   workload.ScaleConfig
}

// scaleCellConfig is the cell a scale run builds, on the batched protocol.
func scaleCellConfig(cfg E14Config, clusters int) itcfs.CellConfig {
	return itcfs.CellConfig{
		Mode:        itcfs.Revised,
		Clusters:    clusters,
		CallbackTTL: cfg.CallbackTTL,
		Metrics:     trace.NewRegistry(),
		Retry:       e14Retry(),
		// Let a busy server linger a few seconds before each BulkBreak
		// drain: install bursts serialize on server CPU, so their breaks
		// for one workstation arrive seconds apart and need a window that
		// wide to share RPCs. Updates still reply only after delivery.
		BreakWindow: 8 * time.Second,
	}
}

// provisionShards creates every shard's load user in one step, then writes
// each shard's pool from its set-up station, a step each.
func provisionShards(cell *itcfs.Cell, shards []scaleShard) error {
	err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		for c, sh := range shards {
			if err := newUsers(p, admin, cell.Servers[c].Vice.Name(), sh.user); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for c, sh := range shards {
		_, err := station(cell, c, sh.setup, sh.user, func(p *sim.Proc, ws *itcfs.Workstation) error {
			return workload.PopulateShared(p, ws.FS, sh.mix, rand.New(rand.NewSource(sh.mix.Seed)))
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// runScaleClients adds n stations round-robin over the shards (numbered to
// width digits), starts client i at ramp·i/n from now — it logs in as its
// shard's user and runs its shard's mix — and runs the cell until every
// client is done. It returns the stations and the virtual time that took.
func runScaleClients(cell *itcfs.Cell, shards []scaleShard, n, width int, ramp time.Duration) ([]*itcfs.Workstation, time.Duration, error) {
	ws := make([]*itcfs.Workstation, n)
	for i := range ws {
		ws[i] = cell.AddWorkstation(i%len(shards), fmt.Sprintf("scale-ws%0*d", width, i))
	}
	t0 := cell.Now()
	errs := make([]error, n)
	for i := range ws {
		sh := &shards[i%len(shards)]
		u := workload.NewScaleUser(i/len(shards), sh.mix)
		start := t0.Add(ramp * time.Duration(i) / time.Duration(n))
		cell.Kernel.SpawnAt(start, fmt.Sprintf("scale-%0*d", width, i), func(p *sim.Proc) {
			if err := login(p, ws[i], sh.user); err != nil {
				errs[i] = err
				return
			}
			errs[i] = u.Run(p, ws[i].FS, ws[i].Venus)
		})
	}
	cell.Kernel.Run()
	for _, e := range errs {
		if e != nil {
			return nil, 0, e
		}
	}
	return ws, cell.Now().Sub(t0), nil
}

// e14Run measures one point: n clients against one cluster server, batched
// or legacy protocol.
func e14Run(cfg E14Config, n int, batched bool) (e14Side, error) {
	cc := scaleCellConfig(cfg, 1)
	if !batched {
		cc.UnbatchedBreaks = true
		cc.RevalidateBatch = 1
		cc.BreakWindow = 0
	}
	cell := itcfs.NewCell(cc)
	mix := cfg.Scale
	mix.Seed = cfg.Seed
	shards := []scaleShard{{user: "load", setup: "setup", mix: mix}}
	if err := provisionShards(cell, shards); err != nil {
		return e14Side{}, err
	}

	srv := cell.Servers[0]
	cpu0 := srv.CPU.BusyTime()
	breaks0 := breaksOf(srv)
	breakRPCs0 := srv.Vice.Callbacks().BreakRPCs()
	ws, elapsed, err := runScaleClients(cell, shards, n, 4, 0)
	if err != nil {
		return e14Side{}, err
	}

	side := e14Side{elapsed: elapsed, cache: cacheBytesOf(cell)}
	if side.elapsed > 0 {
		side.util = float64(srv.CPU.BusyTime()-cpu0) / float64(side.elapsed)
	}
	if h := cell.Metrics.FindHistogram(trace.MetricVenusOpenLatency); h != nil {
		side.p90 = h.Quantile(0.90)
	}
	side.breaks = breaksOf(srv) - breaks0
	side.breakRPCs = srv.Vice.Callbacks().BreakRPCs() - breakRPCs0
	for _, w := range ws {
		st := w.Venus.Stats()
		side.revalRPCs += st.Validations + st.BulkValidations
		side.revalItems += st.Revalidated
	}
	return side, nil
}

// e14Retry is the patient retry policy the E14 sweep and the kernel scale
// bench share: load spikes (a burst's refetch wave) can push queueing past
// one call timeout.
func e14Retry() rpc.RetryPolicy {
	return rpc.RetryPolicy{Attempts: 4, Backoff: 15 * time.Second, MaxBackoff: 2 * time.Minute}
}

func breaksOf(srv *itcfs.Server) int64 {
	_, breaks := srv.Vice.Callbacks().Stats()
	return breaks
}
