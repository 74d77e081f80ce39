package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"

	"itcfs"
	"itcfs/internal/monitor"
	"itcfs/internal/trace"
)

// E17 — observability at scale. PR 9 pushed the kernel to 30k clients; this
// experiment proves the observability plane can stay on at that population.
// Leg one ablates tracing off/sampled/full over the identical sharded E14
// quick mix and measures what each mode costs in real seconds and heap
// allocations per simulated client-hour — the sampled plane must ride within
// 5% wall and 5 allocs/client-hour of tracing-off at 30k clients, with full
// tracing measured for contrast. The ablation doubles as a sampling-inertness
// guard: all three legs must produce the identical virtual timeline and a
// byte-identical metrics registry, or the tracer perturbed the workload. Leg
// two seeds an E15-shaped hot-volume cell with tracing, SLO objectives and
// burn-rate evaluation attached, and requires at least one slo.breach flight
// event whose embedded exemplar critical path names the saturated server.
// BENCH_obs.json, emitted here and committed at the repo root, records both
// legs; ci.sh runs the 10k point and a test holds the file to these types.

// E17Config sizes the observability bench.
type E17Config struct {
	Clients []int // client counts for the ablation sweep
	Reps    int   // wall-clock repetitions per leg, best-of (0 = 1)
	// Rate shapes the sampled leg's policy: keep one root in Rate per op
	// class, plus every root slower than e17SlowKeep.
	Rate int
}

// e17BreachCell sizes the seeded hot-volume breach leg: an E15-quick-shaped
// two-cluster cell (a calm phase, then a hot one) driven into saturation
// with the SLO layer attached.
func e17BreachCell() HotCellConfig {
	hot := DefaultE15().HotCellConfig
	hot.Cadence = 15 * time.Second
	hot.Phase = 150 * time.Second
	return hot
}

// The rest of the sampled leg's policy.
const (
	e17SlowKeep = 5 * time.Minute
	e17Seed     = 17 // sampling seed (rotates per-class keep phases)
)

// The breach leg's venus.open SLO, and its cell's trace policy — sampled,
// so the breach attribution exercises the exemplar path, not full
// retention.
const (
	e17Objective  = 250 * time.Millisecond
	e17Target     = 0.95
	e17Window     = 4
	e17BreachBurn = 2.0

	e17BreachRate     = 4
	e17BreachSlowKeep = 2 * time.Second
)

// DefaultE17 returns the standard configuration: the 10k/30k ablation at
// rate-1024 sampling.
func DefaultE17() E17Config {
	return E17Config{
		Clients: []int{10000, 30000},
		Rate:    1024,
	}
}

// ObsLeg is one tracing mode measured at one client count; its unit costs
// normalize by the simulated client-hours, mirroring BENCH_scale.json.
type ObsLeg struct {
	Mode string `json:"mode"` // off | sampled | full
	RealCost
	// SpansKept is how many spans the tracer retained over the whole run —
	// the retention the sampling policy is bounding.
	SpansKept int `json:"spans_kept"`
}

// ObsPoint is the three-leg ablation at one client count, with the sampled
// and full overheads relative to the off leg.
type ObsPoint struct {
	Clients     int      `json:"clients"`
	ClientHours float64  `json:"client_hours"`
	Legs        []ObsLeg `json:"legs"` // off, sampled, full
	// Overheads: wall as a percentage of the off leg, allocations as the
	// absolute increase in allocs per client-hour (the acceptance units).
	SampledWallOverheadPct float64 `json:"sampled_wall_overhead_pct"`
	SampledAllocsPerCHOver float64 `json:"sampled_allocs_per_client_hour_over"`
	FullWallOverheadPct    float64 `json:"full_wall_overhead_pct"`
	FullAllocsPerCHOver    float64 `json:"full_allocs_per_client_hour_over"`
}

// ObsBreach is the breach leg's outcome.
type ObsBreach struct {
	Breaches        int    `json:"breaches"`
	SaturatedServer string `json:"saturated_server"` // the server the load design saturates
	HotNode         string `json:"hot_node"`         // the node the breach event blamed
	// FirstDetail is the first slo.breach event's detail — the burn numbers
	// and the exemplar critical-path decomposition.
	FirstDetail   string `json:"first_breach_detail"`
	BurnMilliPeak int64  `json:"burn_milli_peak"`
	Recovered     bool   `json:"recovered"`
	// AdvisorReason is the overload detector's finding with the SLO burn
	// citation appended (empty if the detector did not fire).
	AdvisorReason string `json:"advisor_reason"`
}

// ObsBench is the full experiment, serialized as BENCH_obs.json.
type ObsBench struct {
	Schema     string     `json:"schema"`
	Workload   string     `json:"workload"`
	SampleRate int        `json:"sample_rate"`
	SlowKeepMs int64      `json:"slow_keep_ms"`
	Points     []ObsPoint `json:"points"`
	Breach     *ObsBreach `json:"breach"`
	Note       string     `json:"note"`
}

// obsLegModes orders the ablation; "off" must come first (it is the
// baseline the overheads divide by).
var obsLegModes = []string{"off", "sampled", "full"}

// RunObsBench measures the ablation sweep and runs the breach leg. As in the
// scale bench, wall-clock time is the measurement, not a hidden dependency:
// every simulated outcome is deterministic, and the run fails if the three
// legs' virtual timelines or metric registries diverge.
func RunObsBench(cfg E17Config) (*ObsBench, error) {
	if len(cfg.Clients) == 0 {
		cfg = DefaultE17()
	}
	if cfg.Rate <= 1 {
		cfg.Rate = 1024
	}
	e14 := DefaultE14()
	// E17 always uses the quick-mix shape: overhead per client-hour is a
	// ratio, so the mix only needs to touch every hot path — and the full
	// leg must retain every span of whatever is simulated.
	e14.Scale.Ops = 10
	e14.Scale.Browse = 4
	e14.Scale.Stagger = 2 * time.Hour
	ob := &ObsBench{
		Schema: "itcfs-bench-obs/v1",
		Workload: "E14 batched quick mix, tracing ablated off/sampled/full; " +
			"E15-shaped hot-volume cell for the SLO breach leg",
		SampleRate: cfg.Rate,
		SlowKeepMs: int64(e17SlowKeep / time.Millisecond),
		Note: "sampled = seeded per-class rate with slow always-keep; legs are " +
			"inert: identical virtual timelines and byte-identical registries",
	}
	for _, n := range cfg.Clients {
		pt := ObsPoint{Clients: n}
		var baseElapsed time.Duration
		var baseFP string
		for _, mode := range obsLegModes {
			leg, fp, elapsed, err := measureObsLeg(e14, n, mode, cfg)
			if err != nil {
				return nil, fmt.Errorf("obs bench %s at %d clients: %w", mode, n, err)
			}
			if mode == "off" {
				baseElapsed, baseFP = elapsed, fp
				pt.ClientHours = round3(clientHours(n, elapsed))
			} else {
				// The inertness guard: tracing may cost real time, never
				// virtual time or a single metric count.
				if elapsed != baseElapsed {
					return nil, fmt.Errorf("obs bench at %d clients: %s leg took %v virtual, off took %v — tracing perturbed the workload",
						n, mode, elapsed, baseElapsed)
				}
				if fp != baseFP {
					return nil, fmt.Errorf("obs bench at %d clients: %s leg's metrics registry diverged from off — tracing perturbed the workload", n, mode)
				}
			}
			pt.Legs = append(pt.Legs, leg)
		}
		off, sampled, full := pt.Legs[0], pt.Legs[1], pt.Legs[2]
		if off.WallSeconds > 0 {
			pt.SampledWallOverheadPct = round3((sampled.WallSeconds - off.WallSeconds) / off.WallSeconds * 100)
			pt.FullWallOverheadPct = round3((full.WallSeconds - off.WallSeconds) / off.WallSeconds * 100)
		}
		pt.SampledAllocsPerCHOver = round3(sampled.AllocsPerClientHour - off.AllocsPerClientHour)
		pt.FullAllocsPerCHOver = round3(full.AllocsPerClientHour - off.AllocsPerClientHour)
		ob.Points = append(ob.Points, pt)
	}
	br, err := e17Breach(e17BreachCell())
	if err != nil {
		return nil, err
	}
	ob.Breach = br
	return ob, nil
}

// measureObsLeg measures the sharded quick mix at n clients in one tracing
// mode (best of cfg.Reps), returning the registry fingerprint and virtual
// elapsed time for the inertness guard.
func measureObsLeg(e14 E14Config, n int, mode string, cfg E17Config) (ObsLeg, string, time.Duration, error) {
	mut := func(cc *itcfs.CellConfig) {
		switch mode {
		case "sampled":
			cc.Trace = &trace.SamplePolicy{
				Seed:    e17Seed,
				Default: trace.ClassPolicy{Rate: cfg.Rate, SlowKeep: e17SlowKeep},
			}
		case "full":
			cc.Trace = &trace.SamplePolicy{} // keep every root
		}
	}
	var cell *itcfs.Cell
	cost, elapsed, err := measureCost(n, cfg.Reps, func() (elapsed time.Duration, err error) {
		cell, elapsed, err = scaleRun(e14, n, mut)
		return elapsed, err
	})
	if err != nil {
		return ObsLeg{}, "", 0, err
	}
	// Fingerprint and span count come after the measurement window so the
	// guard itself costs the legs nothing.
	var reg strings.Builder
	cell.Metrics.WriteText(&reg)
	sum := sha256.Sum256([]byte(reg.String()))
	leg := ObsLeg{Mode: mode, RealCost: cost, SpansKept: len(cell.Tracer.Spans())}
	return leg, hex.EncodeToString(sum[:]), elapsed, nil
}

// e17Breach drives the seeded hot-volume cell: phase A is background load
// only, phase B adds cluster-1 readers hammering server0's public volumes
// past its CPU ceiling. The SLO monitor rides the sampling cadence; the leg
// requires at least one slo.breach whose exemplar critical path names the
// saturated server.
func e17Breach(cfg HotCellConfig) (*ObsBreach, error) {
	h, err := newHotCell(cfg, &trace.SamplePolicy{
		Seed:    cfg.Seed,
		Default: trace.ClassPolicy{Rate: e17BreachRate, SlowKeep: e17BreachSlowKeep},
	})
	if err != nil {
		return nil, fmt.Errorf("E17 breach %w", err)
	}
	cell := h.cell

	// Telemetry and the SLO layer on. The pre-phase Sample absorbs the
	// provisioning traffic into the monitor's histogram baselines, so phase A
	// starts with clean windows.
	t0 := cell.Now()
	horizon := 3*cfg.Phase + cfg.Cadence
	sampler := cell.StartSampling(cfg.Cadence, horizon)
	mon := monitor.AttachSLO(sampler, cell.Metrics, cell.Tracer, cell.Flight, monitor.SLOConfig{
		Objectives: []monitor.SLOObjective{{
			Class:   trace.SpanVenusOpen,
			Latency: e17Objective,
			Target:  e17Target,
		}},
		Window:     e17Window,
		BreachBurn: e17BreachBurn,
	})
	if mon == nil {
		return nil, fmt.Errorf("E17 breach: AttachSLO returned nil")
	}
	sampler.Sample(t0)

	// Phase A: background only — the burn rate should idle at zero.
	aEnd := t0.Add(cfg.Phase)
	h.spawnBackground(aEnd.Add(2 * cfg.Phase))
	if err := h.runUntil(aEnd); err != nil {
		return nil, err
	}
	if mon.Breaching(trace.SpanVenusOpen) {
		return nil, fmt.Errorf("E17 breach: SLO breached during the calm phase")
	}

	// Phase B: the cluster-1 readers pile onto server0.
	bEnd := aEnd.Add(cfg.Phase)
	h.spawnShared(bEnd)
	if err := h.runUntil(bEnd); err != nil {
		return nil, err
	}

	// The overload detector reads the same telemetry; with UseSLO it cites
	// the burn rate in its finding.
	adv := monitor.New(cell)
	adv.UseSLO(mon)
	findings := adv.DetectOverload(sampler)

	// Phase C: hot load gone — the episode should close.
	if err := h.runUntil(bEnd.Add(cfg.Phase)); err != nil {
		return nil, err
	}

	br := &ObsBreach{SaturatedServer: cell.Servers[0].Vice.Name()}
	for _, e := range cell.Flight.Events() {
		switch e.Kind {
		case trace.EventSLOBreach:
			br.Breaches++
			if br.Breaches == 1 {
				br.HotNode = e.Node
				br.FirstDetail = e.Detail
			}
		case trace.EventSLORecover:
			br.Recovered = true
		}
	}
	for _, p := range sampler.Points(trace.SLOBurnSeries(trace.SpanVenusOpen)) {
		if p.V > br.BurnMilliPeak {
			br.BurnMilliPeak = p.V
		}
	}
	if len(findings) > 0 {
		br.AdvisorReason = findings[0].Reason
	}
	if br.Breaches == 0 {
		return nil, fmt.Errorf("E17 breach: no %s flight event fired (peak burn %dm)", trace.EventSLOBreach, br.BurnMilliPeak)
	}
	return br, nil
}

// WriteJSON emits the bench in the form BENCH_obs.json is committed in.
func (ob *ObsBench) WriteJSON(w io.Writer) error { return writeJSON(w, ob) }

// Report renders both legs as a standard experiment table.
func (ob *ObsBench) Report() *Report {
	r := newReport("E17", "observability at scale: sampled tracing overhead + SLO breach attribution",
		"the trace plane established the paper's CPU-bound-servers claim; at 30k clients it must "+
			"stay on without distorting what it measures",
		"clients · leg", "wall s", "wall s/ch", "allocs/ch", "spans kept")
	for _, pt := range ob.Points {
		key := func(format string) string { return fmt.Sprintf(format, pt.Clients) }
		for _, leg := range pt.Legs {
			r.row(fmt.Sprintf("%d · %s", pt.Clients, leg.Mode), float("", "%.2f", leg.WallSeconds),
				float("", "%.6f", leg.WallPerClientHour), float("", "%.1f", leg.AllocsPerClientHour),
				count("", leg.SpansKept))
		}
		r.row(key("%d · sampled overhead"), float(key("sampled_wall_overhead_pct_%d"), "%+.1f%%", pt.SampledWallOverheadPct),
			text(""), float(key("sampled_allocs_per_ch_over_%d"), "%+.1f", pt.SampledAllocsPerCHOver))
		r.row(key("%d · full overhead"), float(key("full_wall_overhead_pct_%d"), "%+.1f%%", pt.FullWallOverheadPct),
			text(""), float("", "%+.1f", pt.FullAllocsPerCHOver))
		r.Metrics[key("spans_sampled_%d")] = float64(pt.Legs[1].SpansKept)
		r.Metrics[key("spans_full_%d")] = float64(pt.Legs[2].SpansKept)
	}
	if br := ob.Breach; br != nil {
		r.row("slo.breach events", count("breaches", br.Breaches))
		r.addRow("breach blamed node", br.HotNode)
		r.addRow("saturated server", br.SaturatedServer)
		r.row("peak burn rate", entry{fmt.Sprintf("%.1fx", float64(br.BurnMilliPeak)/1000), "burn_milli_peak", float64(br.BurnMilliPeak)})
		r.addRow("episode recovered", fmt.Sprint(br.Recovered))
		if br.HotNode == br.SaturatedServer {
			r.Metrics["breach_named_saturated_server"] = 1
		}
		if br.Recovered {
			r.Metrics["breach_recovered"] = 1
		}
		if strings.Contains(br.AdvisorReason, "slo burn") {
			r.Metrics["advisor_cites_burn"] = 1
		}
	}
	return r
}
