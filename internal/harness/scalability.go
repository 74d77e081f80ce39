package harness

import (
	"fmt"
	"math/rand"
	"time"

	"itcfs"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/venus"
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
		row := func(metric, a, b string) {
			r.addRow(fmt.Sprintf("%d · %s", n, metric), a, b)
		}
		row("server CPU util", pct(un.util), pct(ba.util))
		row("p90 open latency", un.p90.Round(time.Millisecond).String(), ba.p90.Round(time.Millisecond).String())
		row("promises broken", fmt.Sprintf("%d", un.breaks), fmt.Sprintf("%d", ba.breaks))
		row("callback RPCs", fmt.Sprintf("%d", un.breakRPCs), fmt.Sprintf("%d", ba.breakRPCs))
		row("RPCs per break", ratio(un.breakRPCs, un.breaks), ratio(ba.breakRPCs, ba.breaks))
		row("revalidation RPCs", fmt.Sprintf("%d", un.revalRPCs), fmt.Sprintf("%d", ba.revalRPCs))
		row("entries revalidated", fmt.Sprintf("%d", un.revalItems), fmt.Sprintf("%d", ba.revalItems))
		r.Metrics[fmt.Sprintf("util_unbatched_%d", n)] = un.util
		r.Metrics[fmt.Sprintf("util_batched_%d", n)] = ba.util
		r.Metrics[fmt.Sprintf("p90_unbatched_ms_%d", n)] = float64(un.p90) / float64(time.Millisecond)
		r.Metrics[fmt.Sprintf("p90_batched_ms_%d", n)] = float64(ba.p90) / float64(time.Millisecond)
		r.Metrics[fmt.Sprintf("break_rpcs_unbatched_%d", n)] = float64(un.breakRPCs)
		r.Metrics[fmt.Sprintf("break_rpcs_batched_%d", n)] = float64(ba.breakRPCs)
		if ba.breakRPCs > 0 {
			r.Metrics[fmt.Sprintf("break_rpc_reduction_%d", n)] = float64(un.breakRPCs) / float64(ba.breakRPCs)
		}
		r.Metrics[fmt.Sprintf("reval_rpcs_unbatched_%d", n)] = float64(un.revalRPCs)
		r.Metrics[fmt.Sprintf("reval_rpcs_batched_%d", n)] = float64(ba.revalRPCs)
	}
	return r, nil
}

func ratio(a, b int64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// e14Run measures one point: n clients against one cluster server, batched
// or legacy protocol.
func e14Run(cfg E14Config, n int, batched bool) (e14Side, error) {
	scale := cfg.Scale
	scale.Seed = cfg.Seed
	reg := trace.NewRegistry()
	cc := itcfs.CellConfig{
		Mode:        itcfs.Revised,
		Clusters:    1,
		CallbackTTL: cfg.CallbackTTL,
		Metrics:     reg,
		Retry:       e14Retry(),
	}
	if !batched {
		cc.UnbatchedBreaks = true
		cc.RevalidateBatch = 1
	} else {
		// Let a busy server linger a few seconds before each BulkBreak
		// drain: install bursts serialize on server CPU, so their breaks
		// for one workstation arrive seconds apart and need a window that
		// wide to share RPCs. Updates still reply only after delivery.
		cc.BreakWindow = 8 * time.Second
	}
	cell := itcfs.NewCell(cc)
	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		err = admin.NewUser(p, "load", "pw", 0)
	})
	if err != nil {
		return e14Side{}, err
	}

	// The pool is written by a setup workstation that then stays idle, so
	// every client starts cold and every client's copy is broken when a
	// writer strikes.
	setup := cell.AddWorkstation(0, "setup")
	cell.Run(func(p *sim.Proc) {
		if err = setup.Login(p, "load", "pw"); err != nil {
			return
		}
		r := rand.New(rand.NewSource(cfg.Seed))
		err = workload.PopulateShared(p, setup.FS, scale, r)
	})
	if err != nil {
		return e14Side{}, err
	}

	ws := make([]*itcfs.Workstation, n)
	for i := range ws {
		ws[i] = cell.AddWorkstation(0, fmt.Sprintf("scale-ws%04d", i))
	}
	srv := cell.Servers[0]
	cpu0 := srv.CPU.BusyTime()
	t0 := cell.Now()
	breaks0 := breaksOf(srv)
	breakRPCs0 := srv.Vice.Callbacks().BreakRPCs()

	errs := make([]error, n)
	for i := range ws {
		i := i
		u := workload.NewScaleUser(i, scale)
		cell.Kernel.SpawnAt(cell.Now(), fmt.Sprintf("scale-%04d", i), func(p *sim.Proc) {
			if lerr := ws[i].Login(p, "load", "pw"); lerr != nil {
				errs[i] = lerr
				return
			}
			errs[i] = u.Run(p, ws[i].FS, ws[i].Venus)
		})
	}
	cell.Kernel.Run()
	for _, e := range errs {
		if e != nil {
			return e14Side{}, e
		}
	}

	side := e14Side{elapsed: cell.Now().Sub(t0)}
	if side.elapsed > 0 {
		side.util = float64(srv.CPU.BusyTime()-cpu0) / float64(side.elapsed)
	}
	if h := reg.FindHistogram(trace.MetricVenusOpenLatency); h != nil {
		side.p90 = h.Quantile(0.90)
	}
	side.breaks = breaksOf(srv) - breaks0
	side.breakRPCs = srv.Vice.Callbacks().BreakRPCs() - breakRPCs0
	var agg venus.Stats
	for _, w := range ws {
		st := w.Venus.Stats()
		agg.Validations += st.Validations
		agg.BulkValidations += st.BulkValidations
		agg.Revalidated += st.Revalidated
	}
	side.revalRPCs = agg.Validations + agg.BulkValidations
	side.revalItems = agg.Revalidated
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
