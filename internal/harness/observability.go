package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"itcfs"
	"itcfs/internal/monitor"
	"itcfs/internal/sim"
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
// legs; ci.sh re-emits the 10k point and compares the schema.

// E17Config sizes the observability bench.
type E17Config struct {
	Clients []int // client counts for the ablation sweep
	Reps    int   // wall-clock repetitions per leg, best-of (0 = 1)
	// Rate and SlowKeep shape the sampled leg's policy: keep one root in
	// Rate per op class, plus every root slower than SlowKeep.
	Rate     int
	SlowKeep time.Duration
	Seed     int64 // sampling seed (rotates per-class keep phases)
	Breach   E17BreachConfig
}

// E17BreachConfig sizes the seeded hot-volume breach leg — an E15-shaped
// two-cluster cell driven into saturation with the SLO layer attached.
type E17BreachConfig struct {
	Seed            int64
	Cadence         time.Duration
	Phase           time.Duration // length of each load phase (calm, then hot)
	HotReaders      int
	WarmReaders     int
	LightPerCluster int
	Files           int
	FileBytes       int
	HotThink        time.Duration
	WarmThink       time.Duration
	LightThink      time.Duration
	// Objective/Target/Window/BreachBurn configure the venus.open SLO.
	Objective  time.Duration
	Target     float64
	Window     int
	BreachBurn float64
	// SampleRate/SlowKeep shape the breach cell's trace policy — sampled, so
	// the breach attribution exercises the exemplar path, not full retention.
	SampleRate   int
	SlowKeep     time.Duration
	FlightEvents int
	Detect       monitor.OverloadConfig
}

// DefaultE17 returns the standard configuration: the tentpole's 10k/30k
// ablation at rate-1024 sampling, and the E15-quick-shaped breach cell.
func DefaultE17() E17Config {
	return E17Config{
		Clients:  []int{10000, 30000},
		Rate:     1024,
		SlowKeep: 5 * time.Minute,
		Seed:     17,
		Breach: E17BreachConfig{
			Seed:            1,
			Cadence:         15 * time.Second,
			Phase:           150 * time.Second,
			HotReaders:      6,
			WarmReaders:     4,
			LightPerCluster: 2,
			Files:           6,
			FileBytes:       8 << 10,
			HotThink:        1700 * time.Millisecond,
			WarmThink:       1250 * time.Millisecond,
			LightThink:      1200 * time.Millisecond,
			Objective:       250 * time.Millisecond,
			Target:          0.95,
			Window:          4,
			BreachBurn:      2.0,
			SampleRate:      4,
			SlowKeep:        2 * time.Second,
			FlightEvents:    512,
			Detect:          monitor.DefaultOverloadConfig(),
		},
	}
}

// ObsLeg is one tracing mode measured at one client count.
type ObsLeg struct {
	Mode        string  `json:"mode"` // off | sampled | full
	WallSeconds float64 `json:"wall_seconds"`
	Allocs      uint64  `json:"allocs"`
	// WallPerClientHour and AllocsPerClientHour normalize by the simulated
	// client-hours, mirroring BENCH_scale.json.
	WallPerClientHour   float64 `json:"wall_seconds_per_client_hour"`
	AllocsPerClientHour float64 `json:"allocs_per_client_hour"`
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
	if cfg.Reps <= 0 {
		cfg.Reps = 1
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
		SlowKeepMs: int64(cfg.SlowKeep / time.Millisecond),
		Note: "sampled = seeded per-class rate with slow always-keep; legs are " +
			"inert: identical virtual timelines and byte-identical registries",
	}
	for _, n := range cfg.Clients {
		pt := ObsPoint{Clients: n}
		var baseElapsed time.Duration
		var baseFP string
		for _, mode := range obsLegModes {
			best := ObsLeg{}
			var bestElapsed time.Duration
			var bestFP string
			for rep := 0; rep < cfg.Reps; rep++ {
				leg, fp, elapsed, err := measureObsLeg(e14, n, mode, cfg)
				if err != nil {
					return nil, fmt.Errorf("obs bench %s at %d clients: %w", mode, n, err)
				}
				if rep == 0 || leg.WallSeconds < best.WallSeconds {
					best, bestFP, bestElapsed = leg, fp, elapsed
				}
			}
			if mode == "off" {
				baseElapsed, baseFP = bestElapsed, bestFP
				pt.ClientHours = round3(float64(n) * bestElapsed.Seconds() / 3600)
			} else {
				// The inertness guard: tracing may cost real time, never
				// virtual time or a single metric count.
				if bestElapsed != baseElapsed {
					return nil, fmt.Errorf("obs bench at %d clients: %s leg took %v virtual, off took %v — tracing perturbed the workload",
						n, mode, bestElapsed, baseElapsed)
				}
				if bestFP != baseFP {
					return nil, fmt.Errorf("obs bench at %d clients: %s leg's metrics registry diverged from off — tracing perturbed the workload", n, mode)
				}
			}
			ch := float64(n) * bestElapsed.Seconds() / 3600
			if ch > 0 {
				best.WallPerClientHour = round6(best.WallSeconds / ch)
				best.AllocsPerClientHour = round3(float64(best.Allocs) / ch)
			}
			pt.Legs = append(pt.Legs, best)
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
	br, err := e17Breach(cfg.Breach)
	if err != nil {
		return nil, err
	}
	ob.Breach = br
	return ob, nil
}

// measureObsLeg runs the sharded quick mix once at n clients in one tracing
// mode, measuring wall time and allocations around the whole run, and
// returning the registry fingerprint and virtual elapsed time for the
// inertness guard.
func measureObsLeg(e14 E14Config, n int, mode string, cfg E17Config) (ObsLeg, string, time.Duration, error) {
	mut := func(cc *itcfs.CellConfig) {
		switch mode {
		case "sampled":
			cc.Trace = true
			cc.TracePolicy = &trace.SamplePolicy{
				Seed:    cfg.Seed,
				Default: trace.ClassPolicy{Rate: cfg.Rate, SlowKeep: cfg.SlowKeep},
			}
		case "full":
			cc.Trace = true // no policy = keep every root
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now() //itcvet:allow wallclock -- the obs bench measures real elapsed time by design
	cell, elapsed, err := scaleRun(e14, n, mut)
	if err != nil {
		return ObsLeg{}, "", 0, err
	}
	wall := time.Since(start) //itcvet:allow wallclock -- the obs bench measures real elapsed time by design
	runtime.ReadMemStats(&after)
	leg := ObsLeg{
		Mode:        mode,
		WallSeconds: round3(wall.Seconds()),
		Allocs:      after.Mallocs - before.Mallocs,
	}
	// Fingerprint and span count come after the measurement window so the
	// guard itself costs the legs nothing.
	var reg strings.Builder
	cell.Metrics.WriteText(&reg)
	sum := sha256.Sum256([]byte(reg.String()))
	leg.SpansKept = len(cell.Tracer.Spans())
	return leg, hex.EncodeToString(sum[:]), elapsed, nil
}

// e17Breach drives the seeded hot-volume cell: phase A is background load
// only, phase B adds cluster-1 readers hammering server0's public volumes
// past its CPU ceiling. The SLO monitor rides the sampling cadence; the leg
// requires at least one slo.breach whose exemplar critical path names the
// saturated server.
func e17Breach(cfg E17BreachConfig) (*ObsBreach, error) {
	cell := itcfs.NewCell(itcfs.CellConfig{
		Mode:         itcfs.Prototype,
		Clusters:     2,
		Metrics:      trace.NewRegistry(),
		FlightEvents: cfg.FlightEvents,
		Trace:        true,
		TracePolicy: &trace.SamplePolicy{
			Seed:    cfg.Seed,
			Default: trace.ClassPolicy{Rate: cfg.SampleRate, SlowKeep: cfg.SlowKeep},
		},
	})
	saturated := cell.Servers[0].Vice.Name()

	// Provision: public volumes on server0, background homes per cluster.
	lightUsers := [2][]string{}
	for c := 0; c < 2; c++ {
		for i := 0; i < cfg.LightPerCluster; i++ {
			lightUsers[c] = append(lightUsers[c], fmt.Sprintf("bg%d-%d", c, i))
		}
	}
	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		if _, err = admin.NewUserAt(p, "pub-hot", "pw", 0, ""); err != nil {
			return
		}
		if _, err = admin.NewUserAt(p, "pub-warm", "pw", 0, ""); err != nil {
			return
		}
		for c := 0; c < 2; c++ {
			home := cell.Servers[c].Vice.Name()
			for _, name := range lightUsers[c] {
				if _, err = admin.NewUserAt(p, name, "pw", 0, home); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("E17 breach provisioning: %w", err)
	}

	addGroup := func(n int, cluster int, prefix, user string) ([]*itcfs.Workstation, error) {
		var group []*itcfs.Workstation
		for i := 0; i < n; i++ {
			ws := cell.AddWorkstation(cluster, fmt.Sprintf("%s%d", prefix, i))
			group = append(group, ws)
			u := user
			if u == "" {
				u = lightUsers[cluster][i]
			}
			var lerr error
			cell.Run(func(p *sim.Proc) { lerr = ws.Login(p, u, "pw") })
			if lerr != nil {
				return nil, lerr
			}
		}
		return group, nil
	}
	hotWS, err := addGroup(cfg.HotReaders, 1, "hot-ws", "pub-hot")
	if err != nil {
		return nil, err
	}
	warmWS, err := addGroup(cfg.WarmReaders, 1, "warm-ws", "pub-warm")
	if err != nil {
		return nil, err
	}
	bgWS := [2][]*itcfs.Workstation{}
	for c := 0; c < 2; c++ {
		if bgWS[c], err = addGroup(cfg.LightPerCluster, c, fmt.Sprintf("bg%d-ws", c), ""); err != nil {
			return nil, err
		}
	}

	populate := func(ws *itcfs.Workstation, owner string) error {
		var werr error
		cell.Run(func(p *sim.Proc) {
			for f := 0; f < cfg.Files; f++ {
				body := make([]byte, cfg.FileBytes)
				for b := range body {
					body[b] = byte(f)
				}
				if werr = ws.FS.WriteFile(p, fmt.Sprintf("/vice/usr/%s/f%d", owner, f), body); werr != nil {
					return
				}
			}
		})
		return werr
	}
	if err := populate(hotWS[0], "pub-hot"); err != nil {
		return nil, err
	}
	if err := populate(warmWS[0], "pub-warm"); err != nil {
		return nil, err
	}
	for c := 0; c < 2; c++ {
		for i, ws := range bgWS[c] {
			if err := populate(ws, lightUsers[c][i]); err != nil {
				return nil, err
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	stagger := make(map[*itcfs.Workstation]time.Duration)
	for _, ws := range hotWS {
		stagger[ws] = time.Duration(rng.Int63n(int64(cfg.HotThink)))
	}
	for _, ws := range warmWS {
		stagger[ws] = time.Duration(rng.Int63n(int64(cfg.WarmThink)))
	}
	for c := 0; c < 2; c++ {
		for _, ws := range bgWS[c] {
			stagger[ws] = time.Duration(rng.Int63n(int64(cfg.LightThink)))
		}
	}

	var loadErr error
	reader := func(ws *itcfs.Workstation, owner string, think time.Duration, until sim.Time) {
		cell.Kernel.Spawn("read-"+ws.Name, func(p *sim.Proc) {
			p.Sleep(stagger[ws])
			for f := 0; p.Now() < until; f++ {
				if _, rerr := ws.FS.ReadFile(p, fmt.Sprintf("/vice/usr/%s/f%d", owner, f%cfg.Files)); rerr != nil {
					if loadErr == nil {
						loadErr = fmt.Errorf("reader %s: %w", ws.Name, rerr)
					}
					return
				}
				p.Sleep(think)
			}
		})
	}

	// Telemetry and the SLO layer on. The pre-phase Sample absorbs the
	// provisioning traffic into the monitor's histogram baselines, so phase A
	// starts with clean windows.
	t0 := cell.Now()
	horizon := 3*cfg.Phase + cfg.Cadence
	sampler := cell.StartSampling(cfg.Cadence, horizon)
	mon := monitor.AttachSLO(sampler, cell.Metrics, cell.Tracer, cell.Flight, monitor.SLOConfig{
		Objectives: []monitor.SLOObjective{{
			Class:   trace.SpanVenusOpen,
			Latency: cfg.Objective,
			Target:  cfg.Target,
		}},
		Window:     cfg.Window,
		BreachBurn: cfg.BreachBurn,
	})
	if mon == nil {
		return nil, fmt.Errorf("E17 breach: AttachSLO returned nil")
	}
	sampler.Sample(t0)

	// Phase A: background only — the burn rate should idle at zero.
	aEnd := t0.Add(cfg.Phase)
	for c := 0; c < 2; c++ {
		for i, ws := range bgWS[c] {
			reader(ws, lightUsers[c][i], cfg.LightThink, aEnd.Add(2*cfg.Phase))
		}
	}
	cell.Kernel.RunUntil(aEnd)
	if loadErr != nil {
		return nil, loadErr
	}
	if mon.Breaching(trace.SpanVenusOpen) {
		return nil, fmt.Errorf("E17 breach: SLO breached during the calm phase")
	}

	// Phase B: the cluster-1 readers pile onto server0.
	bEnd := aEnd.Add(cfg.Phase)
	for _, ws := range hotWS {
		reader(ws, "pub-hot", cfg.HotThink, bEnd)
	}
	for _, ws := range warmWS {
		reader(ws, "pub-warm", cfg.WarmThink, bEnd)
	}
	cell.Kernel.RunUntil(bEnd)
	if loadErr != nil {
		return nil, loadErr
	}

	// The overload detector reads the same telemetry; with UseSLO it cites
	// the burn rate in its finding.
	adv := monitor.New(cell, monitor.DefaultConfig())
	adv.UseSLO(mon)
	findings := adv.DetectOverload(sampler, cfg.Detect)

	// Phase C: hot load gone — the episode should close.
	cEnd := bEnd.Add(cfg.Phase)
	cell.Kernel.RunUntil(cEnd)
	if loadErr != nil {
		return nil, loadErr
	}

	br := &ObsBreach{SaturatedServer: saturated}
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

// WriteJSON emits the bench as deterministic, indented JSON (struct field
// order; no map keys anywhere in the schema).
func (ob *ObsBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ob)
}

// Report renders both legs as a standard experiment table.
func (ob *ObsBench) Report() *Report {
	r := newReport("E17", "observability at scale: sampled tracing overhead + SLO breach attribution",
		"the trace plane established the paper's CPU-bound-servers claim; at 30k clients it must "+
			"stay on without distorting what it measures",
		"clients · leg", "wall s", "wall s/ch", "allocs/ch", "spans kept")
	for _, pt := range ob.Points {
		for _, leg := range pt.Legs {
			r.addRow(fmt.Sprintf("%d · %s", pt.Clients, leg.Mode),
				fmt.Sprintf("%.2f", leg.WallSeconds),
				fmt.Sprintf("%.6f", leg.WallPerClientHour),
				fmt.Sprintf("%.1f", leg.AllocsPerClientHour),
				fmt.Sprintf("%d", leg.SpansKept))
		}
		r.addRow(fmt.Sprintf("%d · sampled overhead", pt.Clients),
			fmt.Sprintf("%+.1f%%", pt.SampledWallOverheadPct), "",
			fmt.Sprintf("%+.1f", pt.SampledAllocsPerCHOver), "")
		r.addRow(fmt.Sprintf("%d · full overhead", pt.Clients),
			fmt.Sprintf("%+.1f%%", pt.FullWallOverheadPct), "",
			fmt.Sprintf("%+.1f", pt.FullAllocsPerCHOver), "")
		r.Metrics[fmt.Sprintf("sampled_wall_overhead_pct_%d", pt.Clients)] = pt.SampledWallOverheadPct
		r.Metrics[fmt.Sprintf("sampled_allocs_per_ch_over_%d", pt.Clients)] = pt.SampledAllocsPerCHOver
		r.Metrics[fmt.Sprintf("full_wall_overhead_pct_%d", pt.Clients)] = pt.FullWallOverheadPct
		r.Metrics[fmt.Sprintf("spans_sampled_%d", pt.Clients)] = float64(pt.Legs[1].SpansKept)
		r.Metrics[fmt.Sprintf("spans_full_%d", pt.Clients)] = float64(pt.Legs[2].SpansKept)
	}
	if br := ob.Breach; br != nil {
		r.addRow("slo.breach events", fmt.Sprintf("%d", br.Breaches), "", "", "")
		r.addRow("breach blamed node", br.HotNode, "", "", "")
		r.addRow("saturated server", br.SaturatedServer, "", "", "")
		r.addRow("peak burn rate", fmt.Sprintf("%.1fx", float64(br.BurnMilliPeak)/1000), "", "", "")
		r.addRow("episode recovered", fmt.Sprintf("%v", br.Recovered), "", "", "")
		r.Metrics["breaches"] = float64(br.Breaches)
		r.Metrics["burn_milli_peak"] = float64(br.BurnMilliPeak)
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
