package monitor

import (
	"fmt"
	"strings"
	"time"

	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// The SLO layer: per-op-class virtual-time latency objectives evaluated on
// the sampling cadence, with windowed burn rates in the style of
// error-budget alerting. Where DetectOverload reads resource utilization —
// the server's view — the SLO monitor reads what clients experienced: the
// fraction of operations in the recent window that missed their class
// objective, scaled by the class's error budget. A burn rate of 1.0 spends
// the budget exactly as fast as the target allows; sustained operation above
// BreachBurn opens a breach episode, logged to the flight recorder as a
// "slo.breach" event whose detail embeds the critical-path decomposition of
// the window's worst sampled exemplar span — so the audit trail names the
// saturated server, not just the symptom. Everything derives from
// deterministic histogram windows and sampled exemplars, so breach episodes
// replay byte-identically under one seed.

// SLOObjective is one class's latency objective: at least Target of the
// class's operations should complete within Latency of virtual time.
type SLOObjective struct {
	Class   string        // root span class, e.g. trace.SpanVenusOpen
	Latency time.Duration // per-operation objective
	Target  float64       // fraction that must meet it, e.g. 0.99
}

// SLOConfig tunes the monitor.
type SLOConfig struct {
	Objectives []SLOObjective
	// Window is how many sampling rounds the rolling burn-rate window spans
	// (minimum 1; default 4).
	Window int
	// BreachBurn is the burn rate that opens a breach episode (default 2.0 —
	// spending error budget at twice the sustainable rate).
	BreachBurn float64
}

// DefaultSLOConfig returns objectives for the interactive classes the paper's
// usage-profile clients exercise, with budgets loose enough for a healthy
// cell and tight enough that a saturated server burns through them.
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		Objectives: []SLOObjective{
			{Class: trace.SpanVenusOpen, Latency: 250 * time.Millisecond, Target: 0.95},
			{Class: trace.SpanVenusStore, Latency: 500 * time.Millisecond, Target: 0.95},
		},
		Window:     4,
		BreachBurn: 2.0,
	}
}

// sloRound is one sampling window's operation and violation counts.
type sloRound struct{ n, bad int64 }

// sloState is the monitor's per-class rolling state.
type sloState struct {
	obj      SLOObjective
	metric   string           // obj.Class + ".latency"
	hist     *trace.Histogram // lazily resolved from the registry
	last     trace.HistSnapshot
	ring     []sloRound
	burn     float64
	inBreach bool
	hot      string // node blamed at breach time, echoed on recovery
}

// SLOMonitor evaluates objectives each sampling round. Create with AttachSLO;
// like the rest of the monitor package it runs inside the single-threaded
// simulation and is not safe for concurrent use.
type SLOMonitor struct {
	cfg     SLOConfig
	reg     *trace.Registry
	tr      *trace.Tracer
	flight  *trace.Recorder
	sampler *trace.Sampler
	classes []*sloState // objective order — deterministic iteration
}

// AttachSLO builds a monitor over the cell's observability plane and hooks it
// onto the sampler's cadence: each round it windows every objective's latency
// histogram, records the burn-rate series (trace.SLOBurnSeries), and logs
// breach/recovery transitions to the flight recorder. Returns nil when the
// sampler or registry is nil (observability disabled).
func AttachSLO(s *trace.Sampler, reg *trace.Registry, tr *trace.Tracer, flight *trace.Recorder, cfg SLOConfig) *SLOMonitor {
	if s == nil || reg == nil {
		return nil
	}
	if len(cfg.Objectives) == 0 {
		cfg = DefaultSLOConfig()
	}
	if cfg.Window < 1 {
		cfg.Window = 4
	}
	if cfg.BreachBurn <= 0 {
		cfg.BreachBurn = 2.0
	}
	m := &SLOMonitor{cfg: cfg, reg: reg, tr: tr, flight: flight, sampler: s}
	for _, obj := range cfg.Objectives {
		if obj.Target <= 0 || obj.Target >= 1 {
			obj.Target = 0.95
		}
		m.classes = append(m.classes, &sloState{obj: obj, metric: obj.Class + ".latency"})
	}
	s.OnSample(m.evaluate)
	return m
}

// evaluate runs once per sampling round, after the Sampler released its lock.
func (m *SLOMonitor) evaluate(now sim.Time) {
	for _, st := range m.classes {
		if st.hist == nil {
			// Histograms appear on first observation; until then the class
			// has had no operations and burns nothing.
			st.hist = m.reg.FindHistogram(st.metric)
		}
		var n, bad int64
		if st.hist != nil {
			snap := st.hist.State(st.metric)
			for b := range snap.Buckets {
				d := snap.Buckets[b] - st.last.Buckets[b]
				if d != 0 && bucketViolates(b, st.obj.Latency) {
					bad += d
				}
			}
			n = snap.Count - st.last.Count
			st.last = snap
		}
		st.ring = append(st.ring, sloRound{n: n, bad: bad})
		if len(st.ring) > m.cfg.Window {
			st.ring = st.ring[len(st.ring)-m.cfg.Window:]
		}
		var wn, wbad int64
		for _, r := range st.ring {
			wn += r.n
			wbad += r.bad
		}
		burn := 0.0
		if wn > 0 {
			burn = float64(wbad) / float64(wn) / (1 - st.obj.Target)
		}
		st.burn = burn
		milli := int64(burn*1000 + 0.5)
		m.sampler.Record(trace.SLOBurnSeries(st.obj.Class), trace.Point{At: now, V: milli})
		breaching := wn > 0 && burn >= m.cfg.BreachBurn
		switch {
		case breaching && !st.inBreach:
			st.inBreach = true
			st.hot = m.logBreach(st, wn, wbad, milli)
		case !breaching && st.inBreach:
			st.inBreach = false
			m.flight.Log(trace.EventSLORecover, st.hot,
				fmt.Sprintf("class=%s burn=%dm window_ops=%d", st.obj.Class, milli, wn))
			st.hot = ""
		}
	}
}

// bucketViolates reports whether every observation in histogram bucket b
// exceeds the objective. Bucket b >= 1 holds microsecond counts of bit
// length b, so its lower bound is 2^(b-1) µs; comparing that bound keeps the
// violation count a deterministic (slightly conservative) function of the
// bucketed distribution.
func bucketViolates(b int, objective time.Duration) bool {
	if b == 0 {
		return false
	}
	return time.Duration(1)<<(b-1)*time.Microsecond >= objective
}

// logBreach emits the slo.breach flight event, embedding the critical-path
// decomposition of the class's worst sampled exemplar, and returns the node
// the episode is attributed to — the server behind the exemplar's slowest
// rpc.serve span, or the class name when no exemplar was sampled.
func (m *SLOMonitor) logBreach(st *sloState, wn, wbad, milli int64) string {
	hot := st.obj.Class
	var detail strings.Builder
	fmt.Fprintf(&detail, "class=%s burn=%dm window_ops=%d bad=%d objective=%v target=%.2f",
		st.obj.Class, milli, wn, wbad, st.obj.Latency, st.obj.Target)
	if ex, ok := m.sampler.WorstExemplar(st.obj.Class); ok && m.tr != nil {
		spans := m.tr.TraceSpans(ex.Trace)
		fmt.Fprintf(&detail, " exemplar_trace=%d dur=%v", ex.Trace, time.Duration(ex.Dur))
		for _, b := range trace.Analyze(spans) {
			if b.Name != st.obj.Class {
				continue
			}
			fmt.Fprintf(&detail, " path[client=%v server=%v net_queue=%v net_serial=%v net_prop=%v]",
				b.Client, b.Server, b.NetQueue, b.NetSerial, b.NetProp)
		}
		var worstServe *trace.Span
		for _, sp := range spans {
			if sp.Name() != trace.SpanRPCServe {
				continue
			}
			if worstServe == nil || sp.Duration() > worstServe.Duration() {
				worstServe = sp
			}
		}
		if worstServe != nil {
			hot = worstServe.Node()
			fmt.Fprintf(&detail, " hot=%s serve=%v", hot, time.Duration(worstServe.Duration()))
		}
	}
	m.flight.Log(trace.EventSLOBreach, hot, detail.String())
	return hot
}

// WorstBurn returns the objective burning fastest as of the last round (ties
// keep objective order); ok is false with no objectives evaluated yet.
func (m *SLOMonitor) WorstBurn() (class string, burn float64, ok bool) {
	if m == nil {
		return "", 0, false
	}
	for _, st := range m.classes {
		if len(st.ring) == 0 {
			continue
		}
		if !ok || st.burn > burn {
			class, burn, ok = st.obj.Class, st.burn, true
		}
	}
	return class, burn, ok
}

// Breaching reports whether the class is inside a breach episode.
func (m *SLOMonitor) Breaching(class string) bool {
	if m == nil {
		return false
	}
	for _, st := range m.classes {
		if st.obj.Class == class {
			return st.inBreach
		}
	}
	return false
}
