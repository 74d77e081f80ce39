package trace

import (
	"strings"
	"testing"
	"time"

	"itcfs/internal/sim"
)

// TestCollapseTopKAndOther: only the K busiest family members keep their own
// series each window, and the "other" series equals the sum of the collapsed
// members' deltas.
func TestCollapseTopKAndOther(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, time.Second, 0)
	s.Collapse("vice.vol.", ".ops", 2)

	reg.Counter(VolOpsMetric(1)).Add(50)
	reg.Counter(VolOpsMetric(2)).Add(40)
	reg.Counter(VolOpsMetric(3)).Add(7)
	reg.Counter(VolOpsMetric(4)).Add(3)
	reg.Counter("venus.cache.hits").Add(99) // outside the family: untouched
	s.Sample(sim.Time(1e9))

	for name, want := range map[string]int64{
		VolOpsMetric(1):      50,
		VolOpsMetric(2):      40,
		"vice.vol.other.ops": 10,
		"venus.cache.hits":   99,
	} {
		pts := s.Points(name)
		if len(pts) != 1 || pts[0].V != want {
			t.Errorf("%s = %+v, want one point of %d", name, pts, want)
		}
	}
	for _, name := range []string{VolOpsMetric(3), VolOpsMetric(4)} {
		if pts := s.Points(name); len(pts) != 0 {
			t.Errorf("collapsed member %s still has its own series: %+v", name, pts)
		}
	}

	// Next window the ranking flips: volume 3 becomes hot, volume 2 idle.
	reg.Counter(VolOpsMetric(3)).Add(100)
	reg.Counter(VolOpsMetric(1)).Add(20)
	reg.Counter(VolOpsMetric(4)).Add(1)
	s.Sample(sim.Time(2e9))
	if pts := s.Points(VolOpsMetric(3)); len(pts) != 1 || pts[0].V != 100 {
		t.Errorf("vol 3 after flip = %+v", s.Points(VolOpsMetric(3)))
	}
	// other = vol 2 delta (0) + vol 4 delta (1).
	pts := s.Points("vice.vol.other.ops")
	if len(pts) != 2 || pts[1].V != 1 {
		t.Errorf("other after flip = %+v, want second point of 1", pts)
	}
}

// TestCollapseTieBreaking: equal window deltas rank by name ascending, so the
// winner set is deterministic.
func TestCollapseTieBreaking(t *testing.T) {
	run := func() []string {
		reg := NewRegistry()
		s := NewSampler(reg, time.Second, 0)
		s.Collapse("vice.vol.", ".ops", 2)
		for _, vol := range []uint32{10, 2, 7, 30} {
			reg.Counter(VolOpsMetric(vol)).Add(5) // all tied
		}
		s.Sample(sim.Time(1e9))
		var kept []string
		for _, n := range s.SeriesNames() {
			if strings.HasPrefix(n, "vice.vol.") && n != "vice.vol.other.ops" {
				kept = append(kept, n)
			}
		}
		return kept
	}
	a, b := run(), run()
	// Name order: "vice.vol.10.ops" < "vice.vol.2.ops" < "vice.vol.30.ops" <
	// "vice.vol.7.ops" (string comparison).
	if len(a) != 2 || a[0] != VolOpsMetric(10) || a[1] != VolOpsMetric(2) {
		t.Errorf("tied winners = %v, want [%s %s]", a, VolOpsMetric(10), VolOpsMetric(2))
	}
	if len(b) != len(a) || b[0] != a[0] || b[1] != a[1] {
		t.Errorf("tie-breaking not deterministic: %v vs %v", a, b)
	}
}

// TestCollapseHistograms: histogram families rank by window count; the
// "other" quantiles come from the merged bucket diffs of the losers.
func TestCollapseHistograms(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, time.Second, 0)
	s.Collapse("vice.vol.", ".latency", 1)

	reg.Histogram(VolLatencyMetric(1)).Observe(time.Millisecond)
	reg.Histogram(VolLatencyMetric(1)).Observe(time.Millisecond)
	reg.Histogram(VolLatencyMetric(1)).Observe(time.Millisecond)
	reg.Histogram(VolLatencyMetric(2)).Observe(10 * time.Millisecond)
	reg.Histogram(VolLatencyMetric(3)).Observe(40 * time.Millisecond)
	reg.Histogram(VolLatencyMetric(3)).Observe(40 * time.Millisecond)
	reg.Histogram(VolLatencyMetric(3)).Observe(40 * time.Millisecond)
	s.Sample(sim.Time(1e9))

	// vol 3 ties the winner at n=3; the name tie-break keeps vol 1.
	if pts := s.Points(VolLatencyMetric(1) + ".n"); len(pts) != 1 || pts[0].V != 3 {
		t.Errorf("winner .n = %+v", pts)
	}
	pts := s.Points("vice.vol.other.latency.n")
	if len(pts) != 1 || pts[0].V != 4 {
		t.Fatalf("other .n = %+v, want one point of 4", pts)
	}
	p99 := s.Points("vice.vol.other.latency.p99")
	if len(p99) != 1 || p99[0].V <= 0 {
		t.Fatalf("other .p99 = %+v", p99)
	}
	// The merged p99 must reflect the slow member (40ms lands in the
	// 32.8–65.5ms bucket; its midpoint is ~49ms).
	if got := time.Duration(p99[0].V); got < 20*time.Millisecond || got > 80*time.Millisecond {
		t.Errorf("other p99 = %v, want within 2x of 40ms", got)
	}
	if pts := s.Points(VolLatencyMetric(2) + ".n"); len(pts) != 0 {
		t.Errorf("collapsed histogram kept its own series: %+v", pts)
	}
}

// TestCollapseRingWraparound: bounded rings keep working under collapse —
// membership churn just leaves gaps, and the ring retains the newest points.
func TestCollapseRingWraparound(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, time.Second, 4) // tiny rings
	s.Collapse("vice.vol.", ".ops", 1)
	c1 := reg.Counter(VolOpsMetric(1))
	c2 := reg.Counter(VolOpsMetric(2))
	for i := 1; i <= 10; i++ {
		// Volume 1 always wins; volume 2 always collapses into other.
		c1.Add(100)
		c2.Add(int64(i))
		s.Sample(sim.Time(int64(i) * 1e9))
	}
	pts := s.Points(VolOpsMetric(1))
	if len(pts) != 4 {
		t.Fatalf("winner ring holds %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if want := sim.Time(int64(7+i) * 1e9); p.At != want || p.V != 100 {
			t.Errorf("winner pts[%d] = {%v, %d}", i, p.At, p.V)
		}
	}
	other := s.Points("vice.vol.other.ops")
	if len(other) != 4 {
		t.Fatalf("other ring holds %d points, want 4", len(other))
	}
	for i, p := range other {
		if want := int64(7 + i); p.V != want {
			t.Errorf("other pts[%d].V = %d, want %d", i, p.V, want)
		}
	}
}

// TestSamplerExemplarsAndHooks: exemplars harvest on the cadence into bounded
// per-class rings, Record feeds derived series, and OnSample hooks run after
// each round.
func TestSamplerExemplarsAndHooks(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	reg := NewRegistry()
	s := NewSampler(reg, time.Second, 0)
	s.AttachExemplars(tr.TakeExemplars)
	var hookTimes []sim.Time
	s.OnSample(func(now sim.Time) {
		hookTimes = append(hookTimes, now)
		s.Record("derived.burn", Point{At: now, V: 42})
	})

	root := tr.Begin(nil, "venus.open", "ws0")
	clk.advance(30 * time.Millisecond)
	root.End()
	s.Sample(sim.Time(1e9))

	if len(hookTimes) != 1 || hookTimes[0] != sim.Time(1e9) {
		t.Fatalf("hook times = %v", hookTimes)
	}
	if pts := s.Points("derived.burn"); len(pts) != 1 || pts[0].V != 42 {
		t.Fatalf("derived series = %+v", pts)
	}
	ex, ok := s.WorstExemplar("venus.open")
	if !ok || ex.Dur != sim.Duration(30*time.Millisecond) {
		t.Fatalf("worst exemplar = %+v ok=%v", ex, ok)
	}
	// The ring is bounded: flood more exemplar windows than the cap.
	for i := 0; i < 2*exemplarCap; i++ {
		r := tr.Begin(nil, "venus.open", "ws0")
		clk.advance(time.Millisecond)
		r.End()
		s.Sample(sim.Time(int64(i+2) * 1e9))
	}
	if got := len(s.Exemplars("venus.open")); got != exemplarCap {
		t.Fatalf("exemplar ring holds %d, want %d", got, exemplarCap)
	}
}
