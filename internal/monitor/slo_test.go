package monitor

import (
	"strings"
	"testing"
	"time"

	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// sloHarness wires an SLO monitor over a bare observability plane — no cell
// needed: the monitor only reads histograms, exemplars and the sampler
// cadence.
type sloHarness struct {
	clock   sim.Time
	reg     *trace.Registry
	tr      *trace.Tracer
	flight  *trace.Recorder
	sampler *trace.Sampler
	mon     *SLOMonitor
}

func newSLOHarness(t *testing.T, cfg SLOConfig) *sloHarness {
	t.Helper()
	h := &sloHarness{reg: trace.NewRegistry()}
	now := func() sim.Time { return h.clock }
	h.tr = trace.New(now)
	h.flight = trace.NewRecorder(64, now)
	h.sampler = trace.NewSampler(h.reg, time.Second)
	h.sampler.AttachExemplars(h.tr.TakeExemplars)
	h.mon = AttachSLO(h.sampler, h.reg, h.tr, h.flight, cfg)
	if h.mon == nil {
		t.Fatal("AttachSLO returned nil with a live sampler and registry")
	}
	return h
}

// round observes n operations of the class at the given latency, then takes
// one sampling round.
func (h *sloHarness) round(class string, n int, lat time.Duration) {
	for i := 0; i < n; i++ {
		h.reg.Histogram(class + ".latency").Observe(lat)
	}
	h.clock = h.clock.Add(time.Second)
	h.sampler.Sample(h.clock)
}

func eventsOfKind(r *trace.Recorder, kind string) []trace.Event {
	var out []trace.Event
	for _, e := range r.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

func TestSLOBurnLifecycle(t *testing.T) {
	cfg := SLOConfig{
		Objectives: []SLOObjective{{Class: trace.SpanVenusOpen, Latency: 250 * time.Millisecond, Target: 0.95}},
		Window:     2,
		BreachBurn: 2.0,
	}
	h := newSLOHarness(t, cfg)

	// Round 1: all fast — burn 0, no breach.
	h.round(trace.SpanVenusOpen, 10, time.Millisecond)
	if b := h.mon.Burn(trace.SpanVenusOpen); b != 0 {
		t.Fatalf("healthy burn = %v, want 0", b)
	}

	// Round 2: all slow — window is 10 good + 10 bad, burn = 0.5/0.05 = 10.
	h.round(trace.SpanVenusOpen, 10, time.Second)
	if b := h.mon.Burn(trace.SpanVenusOpen); b < 9.9 || b > 10.1 {
		t.Fatalf("saturated burn = %v, want ~10", b)
	}
	if !h.mon.Breaching(trace.SpanVenusOpen) {
		t.Fatal("monitor not breaching at 5x the breach burn")
	}
	breaches := eventsOfKind(h.flight, trace.EventSLOBreach)
	if len(breaches) != 1 {
		t.Fatalf("breach events = %d, want 1", len(breaches))
	}
	for _, want := range []string{"class=" + trace.SpanVenusOpen, "burn=10000m", "window_ops=20", "bad=10", "objective=250ms"} {
		if !strings.Contains(breaches[0].Detail, want) {
			t.Errorf("breach detail %q missing %q", breaches[0].Detail, want)
		}
	}

	// Round 3: still inside the episode (the slow round is still in the
	// window) — no duplicate breach event.
	h.round(trace.SpanVenusOpen, 10, time.Millisecond)
	if got := len(eventsOfKind(h.flight, trace.EventSLOBreach)); got != 1 {
		t.Fatalf("breach events after continuation = %d, want 1", got)
	}

	// Round 4: the slow round ages out — burn drops, the episode closes.
	h.round(trace.SpanVenusOpen, 10, time.Millisecond)
	if h.mon.Breaching(trace.SpanVenusOpen) {
		t.Fatal("still breaching after the window recovered")
	}
	recovers := eventsOfKind(h.flight, trace.EventSLORecover)
	if len(recovers) != 1 || !strings.Contains(recovers[0].Detail, "class="+trace.SpanVenusOpen) {
		t.Fatalf("recover events = %+v, want 1 for the class", recovers)
	}

	// The burn series rode the sampling cadence: one point per round, in
	// milli-burns.
	pts := h.sampler.Points(trace.SLOBurnSeries(trace.SpanVenusOpen))
	if len(pts) != 4 {
		t.Fatalf("burn series has %d points, want 4", len(pts))
	}
	if pts[0].V != 0 || pts[1].V != 10000 {
		t.Errorf("burn series = %+v, want 0 then 10000", pts[:2])
	}

	// WorstBurn reports the single objective.
	if class, _, ok := h.mon.WorstBurn(); !ok || class != trace.SpanVenusOpen {
		t.Errorf("WorstBurn = %q ok=%v", class, ok)
	}
}

func TestSLOBreachAttributionNamesHotServer(t *testing.T) {
	cfg := SLOConfig{
		Objectives: []SLOObjective{{Class: trace.SpanVenusOpen, Latency: 100 * time.Millisecond, Target: 0.95}},
		Window:     1,
		BreachBurn: 2.0,
	}
	h := newSLOHarness(t, cfg)

	// One sampled operation: venus.open on ws0 spends most of its time in an
	// rpc.serve span on server1 — the span the breach should blame.
	root := h.tr.Begin(nil, trace.SpanVenusOpen, "ws0")
	call := h.tr.BeginRemote(nil, root.Context(), trace.SpanRPCCall, "ws0")
	serve := h.tr.BeginRemote(nil, call.Context(), trace.SpanRPCServe, "server1")
	h.clock = h.clock.Add(800 * time.Millisecond)
	serve.End()
	h.clock = h.clock.Add(50 * time.Millisecond)
	call.SetInt(trace.AttrServerNs, int64(800*time.Millisecond))
	call.End()
	root.End()

	h.round(trace.SpanVenusOpen, 5, time.Second)
	breaches := eventsOfKind(h.flight, trace.EventSLOBreach)
	if len(breaches) != 1 {
		t.Fatalf("breach events = %d, want 1", len(breaches))
	}
	ev := breaches[0]
	if ev.Node != "server1" {
		t.Errorf("breach attributed to %q, want server1", ev.Node)
	}
	for _, want := range []string{"exemplar_trace=", "path[client=", "hot=server1", "serve=800ms"} {
		if !strings.Contains(ev.Detail, want) {
			t.Errorf("breach detail %q missing %q", ev.Detail, want)
		}
	}

	// Recovery echoes the blamed node.
	h.round(trace.SpanVenusOpen, 20, time.Millisecond)
	recovers := eventsOfKind(h.flight, trace.EventSLORecover)
	if len(recovers) != 1 || recovers[0].Node != "server1" {
		t.Fatalf("recover events = %+v, want 1 on server1", recovers)
	}
}

func TestSLODisabledAndNilSafety(t *testing.T) {
	if m := AttachSLO(nil, trace.NewRegistry(), nil, nil, SLOConfig{}); m != nil {
		t.Error("AttachSLO with nil sampler returned a monitor")
	}
	if m := AttachSLO(trace.NewSampler(nil, time.Second), nil, nil, nil, SLOConfig{}); m != nil {
		t.Error("AttachSLO with nil registry returned a monitor")
	}
	var m *SLOMonitor
	if m.Burn("x") != 0 || m.Breaching("x") {
		t.Error("nil monitor reported state")
	}
	if _, _, ok := m.WorstBurn(); ok {
		t.Error("nil monitor reported a worst burn")
	}
	// An advisor without an SLO monitor must not cite burn rates.
	var a Advisor
	a.UseSLO(nil)
}

func TestSLODefaultsClampConfig(t *testing.T) {
	h := newSLOHarness(t, SLOConfig{
		Objectives: []SLOObjective{{Class: trace.SpanVenusOpen, Latency: 250 * time.Millisecond, Target: 2.5}},
	})
	// The invalid target clamps to 0.95: 1 bad of 20 is exactly burn 1.0.
	h.round(trace.SpanVenusOpen, 19, time.Millisecond)
	for i := 0; i < 1; i++ {
		h.reg.Histogram(trace.SpanVenusOpen + ".latency").Observe(time.Second)
	}
	h.clock = h.clock.Add(time.Second)
	h.sampler.Sample(h.clock)
	if b := h.mon.Burn(trace.SpanVenusOpen); b < 0.99 || b > 1.01 {
		t.Fatalf("burn with clamped target = %v, want ~1.0", b)
	}
	if h.mon.Breaching(trace.SpanVenusOpen) {
		t.Fatal("breaching at burn 1.0 with default breach threshold 2.0")
	}
}
