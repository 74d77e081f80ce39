package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"itcfs/internal/sim"
)

// Time-series telemetry. A Sampler is a virtual-time process that snapshots
// every registry instrument on a fixed cadence and appends each to a series
// of per-window points: counters become per-window deltas (rates),
// gauges become values-at-sample, and histograms become per-window count and
// p50/p90/p99 series computed by diffing bucket snapshots. External probes
// (server CPU busy time, link busy time, RPC queue depth) plug into the same
// cadence; they are how the simulator windows a resource's busy time, for
// E2's peaks and E15's overload detector alike. Sampling only reads state,
// so a run with sampling off is byte-identical — in every workload-visible
// outcome — to one with sampling on, and identical seeds yield identical
// series. A series keeps every point it is given; Start stops ticking at its
// horizon, which bounds how many that is.
//
// AttachExemplars harvests each window's worst sampled spans per class, so
// the series plane carries trace IDs that explain its own tails; OnSample
// hooks and Record let derived layers (SLO burn rates) ride the same cadence.

// Point is one sample: the window-end instant and the windowed value.
type Point struct {
	At sim.Time
	V  int64
}

// exemplarCap bounds the per-class exemplar ring: enough recent windows to
// attribute a burn-rate episode without retaining the whole run.
const exemplarCap = 16

// probe is one external instrument sampled on the cadence.
type probe struct {
	name       string
	fn         func() int64
	cumulative bool  // true: emit per-window deltas of a monotonic total
	last       int64 // previous reading, for cumulative probes
}

// Sampler snapshots a registry and a set of probes on a fixed virtual-time
// cadence. Create one with NewSampler, register probes, then Start it on the
// kernel (or call Sample directly from tests). A nil *Sampler is valid and
// disables sampling: every method is a no-op.
type Sampler struct {
	// reg and every are set at construction, immutable afterwards.
	reg   *Registry
	every time.Duration

	mu     sync.Mutex
	series map[string][]Point // guarded by mu — each in time order
	probes []*probe           // guarded by mu
	lastC  map[string]int64   // guarded by mu — previous counter readings
	// previous histogram snapshots, for bucket diffs
	// guarded by mu
	lastH   map[string]HistSnapshot
	samples int64 // guarded by mu — completed sampling rounds

	hooks  []func(now sim.Time)  // guarded by mu — run after each round, unlocked
	takeEx func() []Exemplar     // guarded by mu — exemplar harvest source
	exRing map[string][]Exemplar // guarded by mu — recent exemplars per class
}

// NewSampler creates a sampler over reg (which may be nil: probes still
// sample). every is the cadence.
func NewSampler(reg *Registry, every time.Duration) *Sampler {
	if every <= 0 {
		every = 30 * time.Second
	}
	return &Sampler{
		reg:    reg,
		every:  every,
		series: make(map[string][]Point),
		lastC:  make(map[string]int64),
		lastH:  make(map[string]HistSnapshot),
	}
}

// Every returns the sampling cadence.
func (s *Sampler) Every() time.Duration {
	if s == nil {
		return 0
	}
	return s.every
}

// AddCumulative registers a probe whose reading is a monotonic total (a
// Resource's busy time, a link's byte count); the series records per-window
// deltas. No-op on a nil sampler.
func (s *Sampler) AddCumulative(name string, fn func() int64) {
	s.addProbe(name, fn, true)
}

// AddInstant registers a probe whose reading is an instantaneous level (a
// queue length); the series records the value at each sample. No-op on a
// nil sampler.
func (s *Sampler) AddInstant(name string, fn func() int64) {
	s.addProbe(name, fn, false)
}

func (s *Sampler) addProbe(name string, fn func() int64, cumulative bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &probe{name: name, fn: fn, cumulative: cumulative}
	if cumulative {
		p.last = fn()
	}
	s.probes = append(s.probes, p)
}

// Record appends one point to the named series directly — the hook for
// derived series (the SLO layer's burn rates) that have no registry
// instrument behind them. No-op on a nil sampler.
func (s *Sampler) Record(name string, p Point) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.appendLocked(name, p)
	s.mu.Unlock()
}

// OnSample registers fn to run after every sampling round, outside the
// sampler's lock, with the round's timestamp — how the SLO layer evaluates
// burn rates on the sampling cadence. No-op on a nil sampler.
func (s *Sampler) OnSample(fn func(now sim.Time)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.hooks = append(s.hooks, fn)
	s.mu.Unlock()
}

// AttachExemplars wires an exemplar source — typically Tracer.TakeExemplars —
// harvested once per round before instruments are read, so every metric
// window carries the trace IDs of its worst sampled spans. No-op on a nil
// sampler.
func (s *Sampler) AttachExemplars(take func() []Exemplar) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.takeEx = take
	if s.exRing == nil {
		s.exRing = make(map[string][]Exemplar)
	}
	s.mu.Unlock()
}

// Exemplars returns the retained exemplars of one class, oldest first.
func (s *Sampler) Exemplars(class string) []Exemplar {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Exemplar, len(s.exRing[class]))
	copy(out, s.exRing[class])
	return out
}

// WorstExemplar returns the slowest retained exemplar of the class; ok is
// false when none have been harvested. Ties keep the earlier exemplar.
func (s *Sampler) WorstExemplar(class string) (Exemplar, bool) {
	var worst Exemplar
	ok := false
	for _, e := range s.Exemplars(class) {
		if !ok || e.Dur > worst.Dur {
			worst, ok = e, true
		}
	}
	return worst, ok
}

// ExemplarClasses returns every class with retained exemplars, sorted.
func (s *Sampler) ExemplarClasses() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.exRing))
	for n := range s.exRing {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Start schedules sampling ticks on the kernel every cadence until the
// horizon. The horizon bounds the self-renewing tick events so Kernel.Run
// still terminates once real work drains. Reads only — the ticks shift event
// sequence numbers but never any workload outcome.
func (s *Sampler) Start(k *sim.Kernel, horizon time.Duration) {
	if s == nil {
		return
	}
	until := k.Now().Add(horizon)
	var tick func()
	tick = func() {
		s.Sample(k.Now())
		if k.Now().Add(s.every) <= until {
			k.After(s.every, tick)
		}
	}
	if k.Now().Add(s.every) <= until {
		k.After(s.every, tick)
	}
}

// Sample takes one sampling round at virtual time now: counters append their
// delta since the previous round, gauges their current value, histograms a
// window count and p50/p90/p99 (suffixes .n, .p50, .p90, .p99; quantiles in
// nanoseconds) computed from bucket diffs, and probes per their kind. No-op
// on a nil sampler.
func (s *Sampler) Sample(now sim.Time) {
	if s == nil {
		return
	}
	snap := s.reg.Snapshot()
	s.mu.Lock()
	take := s.takeEx
	s.mu.Unlock()
	var exs []Exemplar
	if take != nil {
		exs = take() // harvest outside s.mu: the source holds its own lock
	}
	s.mu.Lock()
	for _, c := range snap.Counters {
		s.appendLocked(c.Name, Point{At: now, V: c.Value - s.lastC[c.Name]})
		s.lastC[c.Name] = c.Value
	}
	for _, g := range snap.Gauges {
		s.appendLocked(g.Name, Point{At: now, V: g.Value})
	}
	for i := range snap.Hists {
		h := &snap.Hists[i]
		prev := s.lastH[h.Name]
		var diff [histBuckets]int64
		for b := range diff {
			diff[b] = h.Buckets[b] - prev.Buckets[b]
		}
		s.appendHistLocked(h.Name, now, &diff, h.Count-prev.Count)
		s.lastH[h.Name] = *h
	}
	for _, p := range s.probes {
		v := p.fn()
		if p.cumulative {
			s.appendLocked(p.name, Point{At: now, V: v - p.last})
			p.last = v
		} else {
			s.appendLocked(p.name, Point{At: now, V: v})
		}
	}
	for _, e := range exs {
		ring := append(s.exRing[e.Class], e)
		if len(ring) > exemplarCap {
			ring = ring[len(ring)-exemplarCap:]
		}
		s.exRing[e.Class] = ring
	}
	s.samples++
	hooks := s.hooks
	s.mu.Unlock()
	for _, fn := range hooks {
		fn(now)
	}
}

// appendHistLocked emits one histogram's four per-window series from its
// bucket diff.
//
//itcvet:holds mu
func (s *Sampler) appendHistLocked(name string, now sim.Time, diff *[histBuckets]int64, n int64) {
	s.appendLocked(name+".n", Point{At: now, V: n})
	s.appendLocked(name+".p50", Point{At: now, V: int64(bucketQuantile(diff, n, 0.50))})
	s.appendLocked(name+".p90", Point{At: now, V: int64(bucketQuantile(diff, n, 0.90))})
	s.appendLocked(name+".p99", Point{At: now, V: int64(bucketQuantile(diff, n, 0.99))})
}

//itcvet:holds mu
func (s *Sampler) appendLocked(name string, p Point) {
	s.series[name] = append(s.series[name], p)
}

// Samples returns how many sampling rounds have completed.
func (s *Sampler) Samples() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// Points returns the named series' points in chronological order (nil if the
// series does not exist or on a nil sampler).
func (s *Sampler) Points(name string) []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.series[name]...)
}

// SeriesNames returns every series name, sorted.
func (s *Sampler) SeriesNames() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.series))
	for n := range s.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteCSV writes every series in long form — series,at_ns,value — sorted by
// series name then time. Deterministic: same seed, same bytes.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	if _, err := io.WriteString(w, "series,at_ns,value\n"); err != nil {
		return err
	}
	for _, name := range s.SeriesNames() {
		for _, p := range s.Points(name) {
			if _, err := fmt.Fprintf(w, "%s,%d,%d\n", name, int64(p.At), p.V); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON writes the full telemetry state as one deterministic JSON
// document: the sampling cadence, every series (keyed by name, as
// [at_ns, value] pairs), the retained exemplars per class, and the
// registry's final state as Registry.WriteJSON writes it (empty without a
// registry), so consumers get cumulative totals next to windows.
func (s *Sampler) WriteJSON(w io.Writer) error {
	if s == nil {
		return nil
	}
	type exemplar struct {
		Trace uint64 `json:"trace"`
		Span  uint64 `json:"span"`
		DurNS int64  `json:"dur_ns"`
		AtNS  int64  `json:"at_ns"`
	}
	doc := struct {
		EveryNS   int64                 `json:"every_ns"`
		Series    map[string][][2]int64 `json:"series"`
		Exemplars map[string][]exemplar `json:"exemplars"`
		Registry  any                   `json:"registry"`
	}{EveryNS: int64(s.every), Series: make(map[string][][2]int64), Exemplars: make(map[string][]exemplar)}
	for _, name := range s.SeriesNames() {
		pts := s.Points(name)
		pairs := make([][2]int64, 0, len(pts))
		for _, p := range pts {
			pairs = append(pairs, [2]int64{int64(p.At), p.V})
		}
		doc.Series[name] = pairs
	}
	for _, class := range s.ExemplarClasses() {
		exs := s.Exemplars(class)
		out := make([]exemplar, 0, len(exs))
		for _, e := range exs {
			out = append(out, exemplar{Trace: e.Trace, Span: e.Span, DurNS: int64(e.Dur), AtNS: int64(e.At)})
		}
		doc.Exemplars[class] = out
	}
	doc.Registry = s.reg.jsonDoc()
	return writeJSON(w, doc)
}

// sparkLevels maps a window value to a glyph; ASCII so the dashboard renders
// anywhere a report table does.
const sparkLevels = " .:-=+*#%@"

// WriteDashboard renders every series as one line — name, point count,
// min/max/last values, and an ASCII sparkline of the most recent windows —
// in sorted name order. Purely integer bucketing, so the text is
// deterministic.
func (s *Sampler) WriteDashboard(w io.Writer) {
	if s == nil {
		return
	}
	const sparkWidth = 60
	fmt.Fprintf(w, "timeline: cadence %v, %d series (spark = last %d windows, scaled per series)\n",
		s.every, len(s.SeriesNames()), sparkWidth)
	for _, name := range s.SeriesNames() {
		pts := s.Points(name)
		if len(pts) == 0 {
			continue
		}
		lo, hi := pts[0].V, pts[0].V
		for _, p := range pts {
			if p.V < lo {
				lo = p.V
			}
			if p.V > hi {
				hi = p.V
			}
		}
		tail := pts
		if len(tail) > sparkWidth {
			tail = tail[len(tail)-sparkWidth:]
		}
		spark := make([]byte, len(tail))
		for i, p := range tail {
			lvl := 0
			if hi > lo {
				lvl = int((p.V - lo) * int64(len(sparkLevels)-1) / (hi - lo))
			} else if p.V != 0 {
				lvl = len(sparkLevels) - 1
			}
			spark[i] = sparkLevels[lvl]
		}
		fmt.Fprintf(w, "%-44s n=%-4d min=%-12d max=%-12d last=%-12d |%s|\n",
			name, len(pts), lo, hi, pts[len(pts)-1].V, spark)
	}
}
