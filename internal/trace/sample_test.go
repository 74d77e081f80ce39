package trace

import (
	"fmt"
	"testing"
	"time"

	"itcfs/internal/sim"
)

func TestSeedZeroKeepsFirstRoot(t *testing.T) {
	// Seed 0 pins every class's phase to 0 — a flat every-nth-root rate
	// of keeping roots 0, n, 2n, ...
	clk := &fakeClock{}
	tr := New(clk.now)
	tr.SetPolicy(SamplePolicy{Default: ClassPolicy{Rate: 3}})
	var kept []int
	for i := 0; i < 7; i++ {
		s := tr.Begin(nil, "op", "ws0")
		if s.Context() != (SpanContext{}) {
			kept = append(kept, i)
		}
		s.End()
	}
	if len(kept) != 3 || kept[0] != 0 || kept[1] != 3 || kept[2] != 6 {
		t.Fatalf("kept roots %v, want [0 3 6]", kept)
	}
}

// TestEveryClassFollowsTheDefaultPolicy: the one policy applies to every root
// class, and each class counts its own arrivals, so interleaving classes does
// not move any class's keep decisions. Under a seed each class keeps its own
// seeded phase.
func TestEveryClassFollowsTheDefaultPolicy(t *testing.T) {
	classes := []string{"venus.open", "venus.store", "vice.volume.move"}
	const rate, perClass = 4, 8
	for _, seed := range []int64{0, 17} {
		clk := &fakeClock{}
		tr := New(clk.now)
		tr.SetPolicy(SamplePolicy{Seed: seed, Default: ClassPolicy{Rate: rate}})
		kept := make(map[string][]int)
		for i := 0; i < perClass; i++ {
			for _, cl := range classes {
				s := tr.Begin(nil, cl, "ws0")
				if s.Context() != (SpanContext{}) {
					kept[cl] = append(kept[cl], i)
				}
				s.End()
			}
		}
		for _, cl := range classes {
			// A class keeps arrival n when n+offset is a multiple of the rate.
			first := (rate - int(seededOffset(seed, cl, rate))) % rate
			if want := []int{first, first + rate}; fmt.Sprint(kept[cl]) != fmt.Sprint(want) {
				t.Errorf("seed %d: %s kept its roots %v, want %v", seed, cl, kept[cl], want)
			}
		}
	}
}

func TestSeededOffsetsAreDeterministicAndRotate(t *testing.T) {
	keptWith := func(seed int64) []int {
		clk := &fakeClock{}
		tr := New(clk.now)
		tr.SetPolicy(SamplePolicy{Seed: seed, Default: ClassPolicy{Rate: 8}})
		var kept []int
		for i := 0; i < 16; i++ {
			s := tr.Begin(nil, "venus.open", "ws0")
			if s.Context() != (SpanContext{}) {
				kept = append(kept, i)
			}
			s.End()
		}
		return kept
	}
	a, b := keptWith(42), keptWith(42)
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("same seed kept different roots: %v vs %v", a, b)
	}
	// Some seed in a small range must shift the phase away from 0 — the
	// point of seeding; exhaustive equality would overfit the hash.
	rotated := false
	for seed := int64(1); seed <= 16 && !rotated; seed++ {
		if k := keptWith(seed); k[0] != 0 {
			rotated = true
		}
	}
	if !rotated {
		t.Fatalf("no seed in 1..16 rotated the keep phase of rate 8")
	}
	// Different classes should not all share one phase under one seed.
	off1 := seededOffset(7, "venus.open", 64)
	off2 := seededOffset(7, "venus.store", 64)
	off3 := seededOffset(7, "venus.open", 64)
	if off1 != off3 {
		t.Fatalf("seededOffset not deterministic: %d vs %d", off1, off3)
	}
	if off1 == off2 {
		t.Logf("classes collided at offset %d (allowed, but surprising)", off1)
	}
}

func TestSlowKeepRecordsTailOperations(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	tr.SetPolicy(SamplePolicy{Default: ClassPolicy{Rate: 1000, SlowKeep: 100 * time.Millisecond}})
	// Root 0 is kept by phase; make it fast and uninteresting.
	tr.Begin(nil, "venus.open", "ws0").End()

	// A fast sampled-out root: nothing recorded.
	s := tr.Begin(nil, "venus.open", "ws0")
	clk.advance(time.Millisecond)
	s.End()
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("fast sampled-out root recorded a span (have %d)", n)
	}

	// A slow sampled-out root: promoted to a synthetic kept span.
	s = tr.Begin(nil, "venus.open", "ws1")
	clk.advance(250 * time.Millisecond)
	s.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("slow sampled-out root not promoted: %d spans", len(spans))
	}
	kept := spans[1]
	if kept.Name() != "venus.open" || kept.Node() != "ws1" {
		t.Errorf("promoted span = %s on %s", kept.Name(), kept.Node())
	}
	if kept.Duration() != 250*time.Millisecond {
		t.Errorf("promoted span duration = %v, want 250ms", kept.Duration())
	}
	if kept.IntAttr(AttrSlowKept) != 1 {
		t.Errorf("promoted span missing %s attribute", AttrSlowKept)
	}
}

func TestExemplarsTrackWorstRootPerClass(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		for i, d := range []time.Duration{3 * time.Millisecond, 9 * time.Millisecond, 5 * time.Millisecond} {
			_ = i
			s := tr.Begin(p, "venus.open", "ws0")
			clk.advance(d)
			s.End()
		}
		s := tr.Begin(p, "venus.store", "ws0")
		clk.advance(time.Millisecond)
		s.End()
	})
	k.Run()
	exs := tr.TakeExemplars()
	if len(exs) != 2 {
		t.Fatalf("got %d exemplars, want 2: %+v", len(exs), exs)
	}
	if exs[0].Class != "venus.open" || exs[1].Class != "venus.store" {
		t.Fatalf("exemplar order: %s, %s", exs[0].Class, exs[1].Class)
	}
	if exs[0].Dur != sim.Duration(9*time.Millisecond) {
		t.Errorf("venus.open exemplar dur = %v, want 9ms", time.Duration(exs[0].Dur))
	}
	if got := tr.TraceSpans(exs[0].Trace); len(got) != 1 || got[0].Duration() != 9*time.Millisecond {
		t.Errorf("TraceSpans(%d) = %d spans", exs[0].Trace, len(got))
	}
	// Harvest resets the table.
	if again := tr.TakeExemplars(); len(again) != 0 {
		t.Errorf("second harvest returned %d exemplars", len(again))
	}
}

func TestSamplingDecisionsMatchAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		clk := &fakeClock{}
		tr := New(clk.now)
		tr.SetPolicy(SamplePolicy{
			Seed:    17,
			Default: ClassPolicy{Rate: 4},
		})
		classes := []string{"venus.open", "venus.store", "venus.open", "venus.store",
			"venus.open", "venus.fetch", "venus.store", "venus.open"}
		var traces []uint64
		for i, cl := range classes {
			s := tr.Begin(nil, cl, "ws0")
			clk.advance(time.Duration(i) * time.Millisecond)
			if ctx := s.Context(); ctx != (SpanContext{}) {
				traces = append(traces, ctx.Trace)
			}
			s.End()
		}
		return traces
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs kept different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("kept trace IDs diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestExemplarsPreferDecomposableRoots(t *testing.T) {
	// A synthetic slow-keep promotion has no child spans, so it cannot
	// explain a latency tail; the exemplar table must prefer fully-traced
	// roots over synthetics regardless of duration.
	clk := &fakeClock{}
	tr := New(clk.now)
	tr.SetPolicy(SamplePolicy{Default: ClassPolicy{Rate: 3, SlowKeep: 100 * time.Millisecond}})

	// Root 0: kept by phase, fast. Root 1: suppressed but slow — promoted to
	// a synthetic span, yet it must not displace the decomposable root 0.
	s := tr.Begin(nil, "venus.open", "ws0")
	clk.advance(10 * time.Millisecond)
	s.End()
	s = tr.Begin(nil, "venus.open", "ws1")
	clk.advance(300 * time.Millisecond)
	s.End()
	exs := tr.TakeExemplars()
	if len(exs) != 1 || exs[0].SlowKept || exs[0].Dur != sim.Duration(10*time.Millisecond) {
		t.Fatalf("exemplar = %+v, want the 10ms fully-traced root", exs)
	}

	// With the table empty, a synthetic fills it (tail visibility beats
	// nothing) — but the next kept root displaces it even though it is faster.
	s = tr.Begin(nil, "venus.open", "ws1") // root 2: suppressed, slow
	clk.advance(300 * time.Millisecond)
	s.End()
	if exs = tr.TakeExemplars(); len(exs) != 1 || !exs[0].SlowKept {
		t.Fatalf("exemplar = %+v, want the synthetic slow-keep", exs)
	}
	tr.Begin(nil, "venus.open", "ws0").End() // root 3: kept by phase, 0ms
	tr.TakeExemplars()                       // discard it
	s = tr.Begin(nil, "venus.open", "ws1")   // root 4: suppressed, slow again
	clk.advance(300 * time.Millisecond)
	s.End()
	s = tr.Begin(nil, "venus.open", "ws0") // root 5: suppressed, fast
	s.End()
	s = tr.Begin(nil, "venus.open", "ws0") // root 6: kept by phase, 5ms
	clk.advance(5 * time.Millisecond)
	s.End()
	exs = tr.TakeExemplars()
	if len(exs) != 1 || exs[0].SlowKept || exs[0].Dur != sim.Duration(5*time.Millisecond) {
		t.Fatalf("exemplar = %+v, want the 5ms fully-traced root displacing the synthetic", exs)
	}
}

func TestSuppressedSpanNestingAfterPooling(t *testing.T) {
	// A suppressed root's descendants are suppressed too, the ambient stack
	// survives, and pooled spans do not leak state between operations.
	clk := &fakeClock{}
	tr := New(clk.now)
	tr.SetPolicy(SamplePolicy{Default: ClassPolicy{Rate: 1 << 30, SlowKeep: time.Hour}})
	// Root 0 of the class is kept by phase; burn it so the loop below sees
	// only suppressed operations.
	tr.Begin(nil, "venus.open", "ws0").End()
	tr.Reset()
	k := sim.NewKernel()
	// t.Fatalf inside a proc would Goexit the goroutine and strand the
	// kernel, so collect the first failure and report it after Run.
	var fail string
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			root := tr.Begin(p, "venus.open", "ws0")
			child := tr.Begin(p, "rpc.call", "ws0")
			grand := tr.BeginRemote(p, child.Context(), "rpc.serve", "srv")
			if grand.Context() != (SpanContext{}) {
				fail = fmt.Sprintf("suppressed context leaked: %+v", grand.Context())
				return
			}
			grand.End()
			child.End()
			if Current(p) != root {
				fail = fmt.Sprintf("ambient stack broken at %d", i)
				return
			}
			root.End()
			if Current(p) != nil {
				fail = fmt.Sprintf("ambient not cleared at %d", i)
				return
			}
		}
	})
	k.Run()
	if fail != "" {
		t.Fatal(fail)
	}
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("suppressed fast operations recorded %d spans", n)
	}
}
