package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"itcfs/internal/sim"
)

// fakeClock drives a tracer without a kernel.
type fakeClock struct{ t sim.Time }

func (c *fakeClock) now() sim.Time          { return c.t }
func (c *fakeClock) advance(d sim.Duration) { c.t = c.t.Add(d) }

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	s := tr.Begin(nil, "op", "node")
	if s != nil {
		t.Fatalf("nil tracer produced a span")
	}
	// Every method must be callable on the nil span.
	s.SetInt("k", 1)
	s.SetStr("k", "v")
	s.End()
	if got := s.Context(); got != (SpanContext{}) {
		t.Fatalf("nil span context = %+v", got)
	}
	tr.SetPolicy(SamplePolicy{Default: ClassPolicy{Rate: 10}})
	if tr.Spans() != nil {
		t.Fatalf("nil tracer has spans")
	}
}

func TestSpanNestingAndAmbientStack(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		root := tr.Begin(p, "venus.open", "ws0")
		clk.advance(time.Millisecond)
		child := tr.Begin(p, "rpc.call", "ws0")
		if Current(p) != child {
			t.Errorf("ambient span is not the child")
		}
		if child.Context().Trace != root.Context().Trace {
			t.Errorf("child joined a different trace")
		}
		if child.Parent() != root.Context().Span {
			t.Errorf("child parent = %d, want %d", child.Parent(), root.Context().Span)
		}
		clk.advance(2 * time.Millisecond)
		child.End()
		if Current(p) != root {
			t.Errorf("End did not restore the parent as ambient")
		}
		root.End()
		if Current(p) != nil {
			t.Errorf("End did not clear the ambient span")
		}
	})
	k.Run()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name() != "venus.open" || spans[1].Name() != "rpc.call" {
		t.Fatalf("span order: %s, %s", spans[0].Name(), spans[1].Name())
	}
	if d := spans[1].Duration(); d != 2*time.Millisecond {
		t.Fatalf("child duration = %v", d)
	}
}

func TestSamplingSuppressesWholeOperation(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	tr.SetPolicy(SamplePolicy{Default: ClassPolicy{Rate: 2}}) // every other root
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			root := tr.Begin(p, "op", "ws0")
			child := tr.Begin(p, "rpc.call", "ws0")
			sampled := i%2 == 0
			if got := child.Context() != (SpanContext{}); got != sampled {
				t.Errorf("root %d: child traced=%v, want %v", i, got, sampled)
			}
			child.End()
			if Current(p) != root {
				t.Errorf("root %d: suppressed child broke the ambient stack", i)
			}
			root.End()
		}
	})
	k.Run()
	if n := len(tr.Spans()); n != 4 {
		t.Fatalf("recorded %d spans, want 4 (2 sampled roots x 2)", n)
	}
}

func TestRemotePropagation(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		call := tr.Begin(p, "rpc.call", "ws0")
		serve := tr.BeginRemote(nil, call.Context(), "rpc.serve", "srv")
		if serve.Context().Trace != call.Context().Trace {
			t.Errorf("server span left the trace")
		}
		if serve.Parent() != call.Context().Span {
			t.Errorf("server span parent = %d", serve.Parent())
		}
		serve.End()
		call.End()

		// Zero context means an untraced caller: suppressed under a
		// simulated process, where the caller was sampled out...
		sup := tr.BeginRemote(p, SpanContext{}, "rpc.serve", "srv")
		if sup == nil || sup.Context() != (SpanContext{}) {
			t.Errorf("zero-context BeginRemote under a simulated process should be suppressed, got %+v", sup.Context())
		}
		if Current(p) != sup {
			t.Errorf("the suppressed server span is not p's ambient span")
		}
		sup.End()
	})
	k.Run()

	// ...but a root under a process without a kernel, a real server worker,
	// whose caller does not trace. It is ambient there until End.
	var worker sim.Proc
	rem := tr.BeginRemote(&worker, SpanContext{}, "rpc.serve", "srv")
	if rem.Context() == (SpanContext{}) || rem.Parent() != 0 {
		t.Errorf("zero-context BeginRemote under a zero process: context %+v, parent %d; want a root", rem.Context(), rem.Parent())
	}
	if Current(&worker) != rem {
		t.Errorf("the server span is not the worker's ambient span")
	}
	rem.End()
	if Current(&worker) != nil {
		t.Errorf("the worker's ambient span outlived End")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if st := h.State("lat"); st.Min != time.Microsecond || st.Max != time.Millisecond {
		t.Fatalf("min=%v max=%v", st.Min, st.Max)
	}
	// Log buckets: quantiles are within a factor of two of the true value.
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 500 * time.Microsecond}, {0.90, 900 * time.Microsecond}, {0.99, 990 * time.Microsecond}} {
		got := h.Quantile(c.q)
		if got < c.want/2 || got > c.want*2 {
			t.Errorf("p%v = %v, want within 2x of %v", c.q*100, got, c.want)
		}
	}
	if r.FindHistogram("absent") != nil {
		t.Fatalf("FindHistogram created a histogram")
	}
	// Nil registry and instruments are inert.
	var nr *Registry
	nr.Counter("c").Inc()
	nr.Gauge("g").Set(1)
	nr.Histogram("h").Observe(time.Second)
	if nr.FindHistogram("h") != nil {
		t.Fatalf("nil registry returned a histogram")
	}
}

// TestExportChromeIsValidJSONAndDeterministic also pins each field of a
// span's event, so the microsecond conversion (a fractional one included)
// and the event shapes hold whatever writes them.
func TestExportChromeIsValidJSONAndDeterministic(t *testing.T) {
	var rootCtx, callCtx SpanContext
	run := func() []byte {
		clk := &fakeClock{}
		tr := New(clk.now)
		k := sim.NewKernel()
		k.Spawn("p", func(p *sim.Proc) {
			root := tr.Begin(p, "venus.open", "ws0")
			root.SetStr("path", "/vice/usr/f")
			clk.advance(time.Millisecond)
			call := tr.Begin(p, "rpc.call", "ws0")
			call.SetInt(AttrServerNs, 5)
			rootCtx, callCtx = root.Context(), call.Context()
			serve := tr.BeginRemote(nil, call.Context(), "rpc.serve", "srv")
			clk.advance(time.Millisecond + 1500*time.Nanosecond)
			serve.End()
			call.End()
			root.End()
		})
		k.Run()
		var buf bytes.Buffer
		if err := tr.ExportChrome(&buf); err != nil {
			t.Fatalf("export: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs exported different traces:\n%s\n---\n%s", a, b)
	}
	var doc struct {
		TraceEvents []struct {
			Ph, Name, Cat string
			Tid           uint64
			Ts            *float64
			Dur           float64
			Args          map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, a)
	}
	// 2 process_name metadata events + 3 spans.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5:\n%s", len(doc.TraceEvents), a)
	}
	sawCall := false
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "process_name":
			if e.Ph != "M" || e.Ts != nil {
				t.Errorf("metadata event has ph %q (want M) or a ts (want none)", e.Ph)
			}
		case "rpc.call":
			sawCall = true
			if e.Ph != "X" || e.Cat != "rpc" || e.Tid != callCtx.Trace {
				t.Errorf("rpc.call ph/cat/tid = %q/%q/%d, want X/rpc/%d", e.Ph, e.Cat, e.Tid, callCtx.Trace)
			}
			if e.Ts == nil {
				t.Errorf("rpc.call has no ts")
			} else if *e.Ts != 1000 || e.Dur != 1001.5 {
				t.Errorf("rpc.call ts/dur = %v/%v µs, want 1000/1001.5", *e.Ts, e.Dur)
			}
			want := map[string]any{
				"span":       float64(callCtx.Span),
				"parent":     float64(rootCtx.Span),
				AttrServerNs: float64(5),
			}
			if !reflect.DeepEqual(e.Args, want) {
				t.Errorf("rpc.call args = %v, want %v", e.Args, want)
			}
		}
	}
	if !sawCall {
		t.Fatalf("no rpc.call event:\n%s", a)
	}
}

func TestAnalyzeComponentsSumToTotal(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		root := tr.Begin(p, "venus.open", "ws0")
		clk.advance(time.Millisecond) // 1ms client work before the call
		call := tr.Begin(p, "rpc.call", "ws0")
		clk.advance(7 * time.Millisecond)
		call.SetInt(AttrNetQueueNs, int64(time.Millisecond))
		call.SetInt(AttrNetSerialNs, int64(2*time.Millisecond))
		call.SetInt(AttrNetPropNs, int64(time.Millisecond))
		call.SetInt(AttrServerNs, int64(3*time.Millisecond))
		call.End()
		clk.advance(time.Millisecond) // 1ms client work after
		root.End()
	})
	k.Run()
	rows := Analyze(tr.Spans())
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1: %+v", len(rows), rows)
	}
	b := rows[0]
	if b.Name != "venus.open" || b.Count != 1 {
		t.Fatalf("row = %+v", b)
	}
	if b.Total != 9*time.Millisecond {
		t.Fatalf("total = %v", b.Total)
	}
	if b.Client != 2*time.Millisecond || b.Server != 3*time.Millisecond ||
		b.NetQueue != time.Millisecond || b.NetSerial != 2*time.Millisecond || b.NetProp != time.Millisecond {
		t.Fatalf("breakdown = %+v", b)
	}
	if sum := b.Client + b.Server + b.Net(); sum != b.Total {
		t.Fatalf("components sum to %v, total %v", sum, b.Total)
	}
}
