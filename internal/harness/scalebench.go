package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"itcfs"
)

// Scale bench — the simulator's own performance trajectory. Every other
// experiment measures the simulated system in virtual time; this one measures
// the simulator in real time: wall-clock seconds and heap allocations per
// simulated client-hour of the batched E14 mix, at increasing client counts.
// The numbers gate the kernel-scale refactor (bucketed timetable, pooled
// messages and frames, flattened receive paths): BENCH_scale.json, emitted
// from this code and committed at the repo root, records the trajectory, and
// TestCommittedBenchFilesMatchTheirTypes holds it to these types so the file
// cannot silently rot.

// RealCost is what simulating a run cost the machine: real seconds and heap
// allocations, in total and per simulated client-hour — the two headline unit
// costs.
type RealCost struct {
	WallSeconds         float64 `json:"wall_seconds"`
	Allocs              uint64  `json:"allocs"`
	WallPerClientHour   float64 `json:"wall_seconds_per_client_hour"`
	AllocsPerClientHour float64 `json:"allocs_per_client_hour"`
}

// clientHours is n clients times the virtual hours their phase took — the
// work actually simulated, and the normalizer for the unit costs.
func clientHours(n int, elapsed time.Duration) float64 {
	return float64(n) * elapsed.Seconds() / 3600
}

// measureCost runs a simulation of n clients and measures real time and
// allocations around the whole of it (set-up included: at 30k clients,
// building the cell is part of what must scale). run returns the virtual time
// the client phase took. Of reps runs (0 = 1) it reports the fastest.
func measureCost(n, reps int, run func() (time.Duration, error)) (best RealCost, elapsed time.Duration, err error) {
	for rep := 0; rep == 0 || rep < reps; rep++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now() //itcvet:allow wallclock -- the scale and obs benches measure real elapsed time by design
		if elapsed, err = run(); err != nil {
			return RealCost{}, 0, err
		}
		wall := time.Since(start).Seconds() //itcvet:allow wallclock -- the scale and obs benches measure real elapsed time by design
		runtime.ReadMemStats(&after)
		cost := RealCost{WallSeconds: round3(wall), Allocs: after.Mallocs - before.Mallocs}
		if ch := clientHours(n, elapsed); ch > 0 {
			cost.WallPerClientHour = round6(wall / ch)
			cost.AllocsPerClientHour = round3(float64(cost.Allocs) / ch)
		}
		if rep == 0 || cost.WallSeconds < best.WallSeconds {
			best = cost
		}
	}
	return best, elapsed, nil
}

// writeJSON emits a bench result as deterministic, indented JSON (struct
// field order; no map keys anywhere in either schema).
func writeJSON(w io.Writer, bench any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bench)
}

// ScalePoint is one measured client count.
type ScalePoint struct {
	Clients     int     `json:"clients"`
	ClientHours float64 `json:"client_hours"`
	RealCost
	// CacheBytesHeld is what the workstations' caches hold at the end of the
	// run, each counting its files in full (the sum of their UsedBytes);
	// CacheBytesDistinct is what the cell's content table keeps for them,
	// each distinct content once. Both are deterministic.
	CacheBytesHeld     int64 `json:"cache_bytes_held,omitempty"`
	CacheBytesDistinct int64 `json:"cache_bytes_distinct,omitempty"`
	// PeakRSSMB is the process's peak resident set (VmHWM) read after the
	// point, in MiB; 0 where the system does not report it.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
}

// cacheBytes is a cell's cache footprint: see ScalePoint.
type cacheBytes struct{ held, distinct int64 }

func cacheBytesOf(cell *itcfs.Cell) cacheBytes {
	c := cacheBytes{distinct: cell.Contents.Bytes()}
	for _, ws := range cell.Workstations() {
		c.held += ws.Local.UsedBytes()
	}
	return c
}

// peakRSSMB reads the process's peak resident set from /proc/self/status,
// in MiB, or 0 where it cannot.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kib, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 64)
			if err != nil {
				return 0
			}
			return round3(kib / 1024)
		}
	}
	return 0
}

// ScaleImprovement compares the reference point against the pre-refactor
// baseline, as ratios (baseline cost / current cost; higher is better).
type ScaleImprovement struct {
	ReferenceClients int     `json:"reference_clients"`
	Wall             float64 `json:"wall"`
	Allocs           float64 `json:"allocs"`
}

// ScaleBench is the full trajectory, serialized as BENCH_scale.json.
type ScaleBench struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Quick    bool   `json:"quick"`
	// Baseline is the pre-refactor kernel at 1000 clients, measured from the
	// same tree with the refactor stashed (best of 3). It is embedded as data
	// rather than re-measured because the pre-refactor code no longer exists
	// in the tree.
	Baseline    ScalePoint        `json:"baseline"`
	Points      []ScalePoint      `json:"points"`
	Improvement *ScaleImprovement `json:"improvement"`
	// Note says in words what Improvement measured; DESIGN.md §11 says why
	// allocations improved far more than wall time.
	Note string `json:"note"`
}

// preRefactorBaseline is the unrefactored kernel (heap-per-event timetable,
// per-message allocation, per-name metric lookups, dispatcher processes)
// driving batched E14 at 1000 clients: best of 3 runs of the same
// measurement loop, taken via `git stash` from the refactored tree.
var preRefactorBaseline = ScalePoint{
	Clients:     1000,
	ClientHours: 26392.4,
	RealCost: RealCost{
		WallSeconds:         5.417,
		Allocs:              14569414,
		WallPerClientHour:   0.000205,
		AllocsPerClientHour: 552,
	},
}

// ScaleBenchConfig sizes a scale-bench run.
type ScaleBenchConfig struct {
	Clients []int // client counts, in reporting order
	Reps    int   // measurement repetitions per count, best-of (0 = 1)
	Quick   bool  // shrink the per-client mix for CI smoke runs
}

// DefaultScaleBench returns the standard trajectory: the tentpole's 1k/10k/30k
// sweep at one rep.
func DefaultScaleBench() ScaleBenchConfig {
	return ScaleBenchConfig{Clients: []int{1000, 10000, 30000}}
}

// RunScaleBench measures the trajectory. Wall-clock time is the measurement
// here, not a hidden dependency: the simulated outcome is deterministic and
// unaffected.
func RunScaleBench(cfg ScaleBenchConfig) (*ScaleBench, error) {
	if len(cfg.Clients) == 0 {
		cfg.Clients = DefaultScaleBench().Clients
	}
	e14 := DefaultE14()
	if cfg.Quick {
		// A lighter per-client mix with the same shape: enough ops to touch
		// every hot path (browse, hot-set reads, bursts, sweeps), few enough
		// that a 10k-client smoke fits in CI.
		e14.Scale.Ops = 10
		e14.Scale.Browse = 4
		e14.Scale.Stagger = 2 * time.Hour
	}
	sb := &ScaleBench{
		Schema:   "itcfs-bench-scale/v1",
		Workload: "E14 batched: shared-pool browse + zipf re-reads + publisher bursts + TTL sweeps",
		Quick:    cfg.Quick,
		Baseline: preRefactorBaseline,
	}
	for _, n := range cfg.Clients {
		// At or below 1000 clients, the exact single-cluster e14Run the
		// pre-refactor baseline was measured with, so the improvement ratio
		// compares identical workloads; above that, the sharded variant.
		var cache cacheBytes
		cost, elapsed, err := measureCost(n, cfg.Reps, func() (time.Duration, error) {
			if n <= 1000 {
				side, err := e14Run(e14, n, true)
				cache = side.cache
				return side.elapsed, err
			}
			cell, elapsed, err := scaleRun(e14, n, nil)
			if err == nil {
				cache = cacheBytesOf(cell)
			}
			return elapsed, err
		})
		if err != nil {
			return nil, fmt.Errorf("scale bench at %d clients: %w", n, err)
		}
		sb.Points = append(sb.Points, ScalePoint{
			Clients: n, ClientHours: round3(clientHours(n, elapsed)), RealCost: cost,
			CacheBytesHeld: cache.held, CacheBytesDistinct: cache.distinct, PeakRSSMB: peakRSSMB(),
		})
	}
	ref := sb.Points[0]
	sb.Improvement = &ScaleImprovement{
		ReferenceClients: ref.Clients,
		Wall:             round3(sb.Baseline.WallPerClientHour / ref.WallPerClientHour),
		Allocs:           round3(sb.Baseline.AllocsPerClientHour / ref.AllocsPerClientHour),
	}
	sb.Note = fmt.Sprintf("at %d clients, against the pre-refactor baseline: allocations per client-hour %.1fx fewer, wall time per client-hour %.1fx less",
		ref.Clients, sb.Improvement.Allocs, sb.Improvement.Wall)
	order := "ran in ascending client order, so each is that point's own peak"
	if !sort.IntsAreSorted(cfg.Clients) {
		order = "did not run in ascending client order, so a reading may be an earlier, larger point's peak"
	}
	sb.Note += "; peak_rss_mb is the process's high-water mark read after each point, and the points " + order
	return sb, nil
}

// scaleClusterSize is the client population one cluster server carries in
// the sharded scale bench. Beyond the E14 sweep's single-server range the
// deployment grows with the population — one cluster server per
// scaleClusterSize clients, each cluster with its own shared pool — exactly
// how the paper's cell scales (§3.1). The bench measures the simulator's
// cost per client-hour, so the simulated system must stay inside its own
// operating envelope (a server drowning under 30k clients would measure
// timeout storms, not kernel throughput); 1000 clients already run one
// server at ~55% CPU with minute-scale p90 open latency, so the shards are
// half that, leaving headroom for the cross-cluster traffic every cluster
// sends the root volume's custodian (login stats, cold browse walks, sweep
// revalidations of the cached root path).
const scaleClusterSize = 500

// scaleArrivalSpacing floors the mean time between client arrivals in the
// sharded bench. Each arriving client's login and cold walk of /vice and
// /vice/usr land on the root volume's custodian regardless of cluster, so
// the sustainable arrival rate is a property of that one server, not of the
// population; 3.6 s/client is the rate the 10,000-clients-over-10-hours
// point sustains with headroom.
const scaleArrivalSpacing = 3600 * time.Millisecond

// scaleRun drives the batched E14 mix at n clients across one cluster per
// scaleClusterSize of them: per-cluster load users, shared pools and
// publishers (clients round-robin over clusters, so each cluster's client 0
// is its publisher), with logins ramped over the op stagger window. mut, when
// non-nil, adjusts the cell configuration before the cell is built — how E17
// ablates the observability plane over the identical workload. Returns the
// cell and the virtual time the client phase took.
func scaleRun(cfg E14Config, n int, mut func(*itcfs.CellConfig)) (*itcfs.Cell, time.Duration, error) {
	clusters := (n + scaleClusterSize - 1) / scaleClusterSize
	cc := scaleCellConfig(clusters)
	if mut != nil {
		mut(&cc)
	}
	cell := itcfs.NewCell(cc)

	// Widen the arrival ramp (login spawn ramp plus each client's own start
	// stagger) so arrivals never exceed the shared-root custodian's
	// sustainable rate — workstation populations this size don't power on
	// at one instant anyway.
	stagger := cfg.Scale.Stagger
	if min := time.Duration(n) * scaleArrivalSpacing; stagger < min {
		stagger = min
	}
	shards := make([]scaleShard, clusters)
	for c := range shards {
		user := fmt.Sprintf("load%d", c)
		// Decorrelate the clusters' schedules: each gets its own seed, pool
		// and publisher, like independent buildings on one campus.
		mix := cfg.Scale
		mix.Seed = cfg.Seed + int64(c)*1_000_003
		mix.Root = "/vice/usr/" + user + "/shared"
		mix.Stagger = stagger
		shards[c] = scaleShard{user: user, setup: fmt.Sprintf("setup%d", c), mix: mix}
	}
	if err := provisionShards(cell, shards); err != nil {
		return nil, 0, err
	}
	_, elapsed, err := runScaleClients(cell, shards, n, 5, stagger)
	return cell, elapsed, err
}

func round3(v float64) float64 { return roundTo(v, 1e3) }
func round6(v float64) float64 { return roundTo(v, 1e6) }

func roundTo(v, scale float64) float64 {
	if v < 0 {
		return -roundTo(-v, scale)
	}
	return float64(int64(v*scale+0.5)) / scale
}

// WriteJSON emits the bench in the form BENCH_scale.json is committed in.
func (sb *ScaleBench) WriteJSON(w io.Writer) error { return writeJSON(w, sb) }

// Report renders the trajectory as a standard experiment table.
func (sb *ScaleBench) Report() *Report {
	r := newReport("SCALE", "sim-kernel cost per simulated client-hour (batched E14)",
		"the revised design exists to serve many more clients per server; the simulator "+
			"itself must scale to drive that population",
		"clients", "client-hours", "wall s", "wall s/ch", "allocs/ch", "cache MB held", "distinct", "peak RSS MB")
	const mb = 1 << 20
	r.row(fmt.Sprintf("%d (pre-refactor)", sb.Baseline.Clients), float("", "%.1f", sb.Baseline.ClientHours),
		float("", "%.2f", sb.Baseline.WallSeconds), float("", "%.6f", sb.Baseline.WallPerClientHour),
		float("", "%.0f", sb.Baseline.AllocsPerClientHour), text(""), text(""), text(""))
	for _, p := range sb.Points {
		key := func(name string) string { return fmt.Sprintf("%s_%d", name, p.Clients) }
		r.row(fmt.Sprint(p.Clients), float("", "%.1f", p.ClientHours), float("", "%.2f", p.WallSeconds),
			float(key("wall_per_ch"), "%.6f", p.WallPerClientHour), float(key("allocs_per_ch"), "%.0f", p.AllocsPerClientHour),
			float(key("cache_mb_held"), "%.1f", float64(p.CacheBytesHeld)/mb),
			float(key("cache_mb_distinct"), "%.1f", float64(p.CacheBytesDistinct)/mb),
			float(key("peak_rss_mb"), "%.0f", p.PeakRSSMB))
	}
	if imp := sb.Improvement; imp != nil {
		r.row(fmt.Sprintf("improvement @%d", imp.ReferenceClients), text(""), text(""),
			float("improvement_wall", "%.1fx", imp.Wall), float("improvement_allocs", "%.1fx", imp.Allocs),
			text(""), text(""), text(""))
	}
	return r
}
