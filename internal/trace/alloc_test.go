package trace

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"itcfs/internal/sim"
)

// TestDisabledPathsAllocFree asserts the observability-off contract: with a
// nil registry, tracer, sampler or recorder, the instrumented hot paths must
// not allocate at all — a cell built without CellConfig.Metrics/Trace/
// FlightEvents pays nothing.
func TestDisabledPathsAllocFree(t *testing.T) {
	var reg *Registry
	var tr *Tracer
	var s *Sampler
	var r *Recorder
	cases := []struct {
		name string
		fn   func()
	}{
		{"counter", func() { reg.Counter("venus.cache.hits").Inc() }},
		{"gauge", func() { reg.Gauge("rpc.server0.inflight").Add(1) }},
		{"histogram", func() { reg.Histogram("rpc.serve.latency").Observe(time.Millisecond) }},
		{"find-histogram", func() { reg.FindHistogram("x").Observe(time.Millisecond) }},
		{"span", func() { tr.Begin(nil, "venus.open", "ws1").End() }},
		{"sample", func() { s.Sample(sim.Time(time.Second)) }},
		{"flight", func() { r.Log("rpc.retry", "ws1", "detail") }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs per run on the disabled path, want 0", c.name, allocs)
		}
	}
}

// TestSampledOutPathAllocFree asserts the scaled-tracing contract: with a
// live tracer whose policy samples an operation out, Begin/End must recycle
// pooled suppressed spans and never allocate — the cost of tracing at 30k
// clients is paid only by the kept fraction. AllocsPerRun's warm-up call
// primes the pool before measurement.
func TestSampledOutPathAllocFree(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	tr.SetPolicy(SamplePolicy{Default: ClassPolicy{Rate: 1 << 30, SlowKeep: time.Hour}})
	tr.Begin(nil, "venus.open", "ws0").End() // burn the phase-0 kept root
	cases := []struct {
		name string
		fn   func()
	}{
		{"suppressed-root", func() { tr.Begin(nil, "venus.open", "ws0").End() }},
		{"suppressed-nest", func() {
			root := tr.Begin(nil, "venus.open", "ws0")
			tr.BeginRemote(nil, root.Context(), "rpc.serve", "srv").End()
			root.End()
		}},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs per run on the sampled-out path, want 0", c.name, allocs)
		}
	}
}

// TestRegistryConcurrentStress hammers one registry from many goroutines —
// observations, lookups, snapshots and exports all racing — so `go test
// -race` proves the locking. The simulator never needs this (one runnable
// process at a time), but itcfsd shares a registry across real goroutines.
func TestRegistryConcurrentStress(t *testing.T) {
	reg := NewRegistry()
	sampler := NewSampler(reg, time.Second)
	rec := NewRecorder(64, func() sim.Time { return 0 })
	const workers = 8
	const iters = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("shared.ops").Inc()
				reg.Counter(fmt.Sprintf("worker.%d.ops", w)).Add(2)
				reg.Gauge("shared.depth").Add(1)
				reg.Gauge("shared.depth").Add(-1)
				reg.Histogram("shared.lat").Observe(time.Duration(i) * time.Microsecond)
				reg.FindHistogram("shared.lat").Observe(time.Millisecond)
				rec.Log("stress", "node", "event")
				if i%50 == 0 {
					sampler.Sample(sim.Time(i) * sim.Time(time.Millisecond))
					if err := reg.WriteJSON(io.Discard); err != nil {
						t.Errorf("WriteJSON: %v", err)
					}
					reg.WriteText(io.Discard)
					_ = sampler.Points("shared.ops")
					_ = rec.Events()
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared.ops").Value(); got != workers*iters {
		t.Errorf("shared.ops = %d, want %d", got, workers*iters)
	}
	if got := reg.Gauge("shared.depth").Value(); got != 0 {
		t.Errorf("shared.depth = %d, want 0", got)
	}
	if got := reg.Histogram("shared.lat").Count(); got != 2*workers*iters {
		t.Errorf("shared.lat count = %d, want %d", got, 2*workers*iters)
	}
	if rec.Total() != workers*iters {
		t.Errorf("flight total = %d, want %d", rec.Total(), workers*iters)
	}
}
