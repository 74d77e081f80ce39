package trace

import (
	"bytes"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"time"

	"itcfs/internal/sim"
)

// TestBucketQuantileVsBruteForce checks the sampler's window quantiles —
// computed from histogram bucket diffs — against a brute-force quantile over
// the same window's observations, bucketized the same way.
func TestBucketQuantileVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewRegistry().Histogram("lat")

	// First window: background observations that must not leak into the
	// second window's quantiles.
	before := h.snapshot("lat")
	for i := 0; i < 500; i++ {
		h.Observe(time.Duration(rng.Int63n(int64(5 * time.Second))))
	}
	mid := h.snapshot("lat")

	var window []time.Duration
	for i := 0; i < 300; i++ {
		d := time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
		window = append(window, d)
		h.Observe(d)
	}
	after := h.snapshot("lat")

	diff := func(a, b HistSnapshot) ([histBuckets]int64, int64) {
		var d [histBuckets]int64
		for i := range d {
			d[i] = b.Buckets[i] - a.Buckets[i]
		}
		return d, b.Count - a.Count
	}

	// Brute force: map each window observation to its bucket midpoint (the
	// resolution the histogram retains), sort, take the same rank.
	mids := make([]time.Duration, len(window))
	for i, d := range window {
		mids[i] = bucketMid(bits.Len64(uint64(d / time.Microsecond)))
	}
	sort.Slice(mids, func(i, j int) bool { return mids[i] < mids[j] })
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1.0} {
		buckets, n := diff(mid, after)
		got := bucketQuantile(&buckets, n, q)
		rank := int64(q * float64(len(mids)))
		if rank < 1 {
			rank = 1
		}
		want := mids[rank-1]
		if got != want {
			t.Errorf("q=%.2f: bucket-diff quantile %v, brute force %v", q, got, want)
		}
	}

	// The first window's diff must reflect only its own 500 observations.
	if buckets, n := diff(before, mid); n != 500 {
		t.Errorf("first window count = %d, want 500", n)
	} else if q := bucketQuantile(&buckets, n, 0.5); q <= 0 {
		t.Errorf("first window p50 = %v", q)
	}
}

// TestBucketQuantileEmpty: an empty window yields zero, not a stale value.
func TestBucketQuantileEmpty(t *testing.T) {
	var buckets [histBuckets]int64
	if got := bucketQuantile(&buckets, 0, 0.5); got != 0 {
		t.Errorf("empty window p50 = %v, want 0", got)
	}
}

// TestSamplerWindows: counters sample as per-window deltas, gauges as values
// at the sample instant, histograms as .n/.p50/.p90/.p99 window series, and
// cumulative probes as deltas.
func TestSamplerWindows(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, time.Second)
	var probeTotal int64
	s.AddCumulative("probe.busy", func() int64 { return probeTotal })
	var level int64
	s.AddInstant("probe.queue", func() int64 { return level })

	c := reg.Counter("ops")
	g := reg.Gauge("depth")
	h := reg.Histogram("lat")

	c.Add(5)
	g.Set(2)
	h.Observe(time.Millisecond)
	h.Observe(time.Millisecond)
	probeTotal, level = 100, 7
	s.Sample(sim.Time(1e9))

	c.Add(3)
	g.Set(9)
	h.Observe(time.Second)
	probeTotal, level = 180, 1
	s.Sample(sim.Time(2e9))

	check := func(name string, want ...int64) {
		t.Helper()
		pts := s.Points(name)
		if len(pts) != len(want) {
			t.Fatalf("%s: %d points, want %d", name, len(pts), len(want))
		}
		for i, w := range want {
			if pts[i].V != w {
				t.Errorf("%s[%d] = %d, want %d", name, i, pts[i].V, w)
			}
		}
	}
	check("ops", 5, 3)
	check("depth", 2, 9)
	check("probe.busy", 100, 80)
	check("probe.queue", 7, 1)
	check("lat.n", 2, 1)
	p50 := s.Points("lat.p50")
	if len(p50) != 2 {
		t.Fatalf("lat.p50: %d points", len(p50))
	}
	// Window 1 holds two 1ms observations; window 2 one 1s observation. The
	// quantile is the bucket midpoint of the window's own distribution.
	w1 := bucketMid(bits.Len64(uint64(time.Millisecond / time.Microsecond)))
	w2 := bucketMid(bits.Len64(uint64(time.Second / time.Microsecond)))
	if p50[0].V != int64(w1) || p50[1].V != int64(w2) {
		t.Errorf("lat.p50 = [%d %d], want [%d %d]", p50[0].V, p50[1].V, int64(w1), int64(w2))
	}
	if s.Samples() != 2 {
		t.Errorf("Samples() = %d, want 2", s.Samples())
	}
}

// TestSamplerOnKernel: Start schedules horizon-bounded ticks — the kernel
// drains to idle (so Run terminates) and the sampler takes exactly
// horizon/cadence samples.
func TestSamplerOnKernel(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	c := reg.Counter("ticks")
	s := NewSampler(reg, time.Second)
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			c.Inc()
			p.Sleep(100 * time.Millisecond)
		}
	})
	s.Start(k, 5*time.Second)
	end := k.Run()
	if s.Samples() != 5 {
		t.Errorf("Samples() = %d, want 5", s.Samples())
	}
	if end > sim.Time(5*time.Second) {
		t.Errorf("kernel ran to %v; sampler ticks must stop at the horizon", end)
	}
	pts := s.Points("ticks")
	var total int64
	for _, p := range pts {
		total += p.V
	}
	// 40 increments at 100ms spacing: the first 5 one-second windows cover
	// all but the tail that falls past the horizon.
	if len(pts) != 5 || total < 40 {
		t.Errorf("ticks series = %v (total %d), want 5 windows totalling >= 40", pts, total)
	}
}

// TestSampleAfterTheHorizonIsKept: a series keeps every point it is given.
// Start stops ticking at its horizon, and a round sampled by hand after that
// (as E17's breach leg takes one at the end of its run) is appended after
// the ticked windows; none of them is dropped to make room.
func TestSampleAfterTheHorizonIsKept(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	c := reg.Counter("ops")
	s := NewSampler(reg, time.Second)
	k.Spawn("load", func(p *sim.Proc) {
		for i := 1; i <= 5; i++ {
			c.Add(int64(i))
			p.Sleep(time.Second)
		}
	})
	s.Start(k, 5*time.Second)
	k.Run()
	c.Add(100)
	last := sim.Time(7 * time.Second)
	s.Sample(last)

	pts := s.Points("ops")
	want := []Point{
		{At: sim.Time(1 * time.Second), V: 1},
		{At: sim.Time(2 * time.Second), V: 2},
		{At: sim.Time(3 * time.Second), V: 3},
		{At: sim.Time(4 * time.Second), V: 4},
		{At: sim.Time(5 * time.Second), V: 5},
		{At: last, V: 100},
	}
	if len(pts) != len(want) {
		t.Fatalf("ops series = %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("ops[%d] = %+v, want %+v", i, pts[i], want[i])
		}
	}
	if s.Samples() != 6 {
		t.Errorf("Samples() = %d, want 6", s.Samples())
	}
}

// TestSamplerWindowsResourceBusyTime: a cumulative probe over a Resource's
// busy time, started on the kernel, holds each window's busy time — what E2
// reads its 5-minute CPU peak from. A bursty holder keeps the device busy
// for all of the first window, none of the second and half of the third.
func TestSamplerWindowsResourceBusyTime(t *testing.T) {
	const window = 10 * time.Millisecond
	k := sim.NewKernel()
	r := sim.NewResource(k, "cpu")
	s := NewSampler(nil, window)
	s.AddCumulative("cpu.busy_ns", func() int64 { return int64(r.BusyTime()) })
	k.Spawn("bursty", func(p *sim.Proc) {
		r.Use(p, window)
		p.Sleep(window)
		r.Use(p, window/2)
		p.Sleep(window / 2)
	})
	s.Start(k, 3*window)
	k.Run()

	pts := s.Points("cpu.busy_ns")
	want := []time.Duration{window, 0, window / 2}
	if len(pts) != len(want) {
		t.Fatalf("%d windows, want %d: %v", len(pts), len(want), pts)
	}
	var peak, sum float64
	for i, pt := range pts {
		if end := sim.Time(int64(i+1) * int64(window)); pt.At != end || pt.V != int64(want[i]) {
			t.Errorf("window %d = {%v, %v}, want {%v, %v}", i, pt.At, time.Duration(pt.V), end, want[i])
		}
		u := float64(pt.V) / float64(window)
		peak, sum = max(peak, u), sum+u
	}
	if peak != 1 || sum/float64(len(pts)) != 0.5 {
		t.Errorf("peak %v, mean %v; want 1 and 0.5", peak, sum/float64(len(pts)))
	}
}

// TestSamplerExportsDeterministic: identical observation sequences yield
// byte-identical CSV, JSON and dashboard output.
func TestSamplerExportsDeterministic(t *testing.T) {
	build := func() *Sampler {
		reg := NewRegistry()
		s := NewSampler(reg, time.Second)
		c := reg.Counter("ops")
		h := reg.Histogram("lat")
		for i := 1; i <= 8; i++ {
			c.Add(int64(i))
			h.Observe(time.Duration(i) * time.Millisecond)
			s.Sample(sim.Time(int64(i) * 1e9))
		}
		return s
	}
	a, b := build(), build()
	var ac, bc, aj, bj, ad, bd bytes.Buffer
	if err := a.WriteCSV(&ac); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&bc); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteJSON(&aj); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bj); err != nil {
		t.Fatal(err)
	}
	a.WriteDashboard(&ad)
	b.WriteDashboard(&bd)
	if !bytes.Equal(ac.Bytes(), bc.Bytes()) {
		t.Error("CSV export differs between identical runs")
	}
	if !bytes.Equal(aj.Bytes(), bj.Bytes()) {
		t.Error("JSON export differs between identical runs")
	}
	if !bytes.Equal(ad.Bytes(), bd.Bytes()) {
		t.Error("dashboard differs between identical runs")
	}
	if ac.Len() == 0 || aj.Len() == 0 || ad.Len() == 0 {
		t.Error("empty export")
	}
}

// TestSamplerNil: a nil sampler is a no-op everywhere.
func TestSamplerNil(t *testing.T) {
	var s *Sampler
	s.AddCumulative("x", func() int64 { return 1 })
	s.AddInstant("y", func() int64 { return 1 })
	s.Sample(0)
	if s.Points("x") != nil || s.SeriesNames() != nil || s.Samples() != 0 || s.Every() != 0 {
		t.Error("nil sampler leaked state")
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s.WriteDashboard(&buf)
}

// TestSamplerExemplarsAndHooks: exemplars harvest on the cadence into bounded
// per-class rings, Record feeds derived series, and OnSample hooks run after
// each round.
func TestSamplerExemplarsAndHooks(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	reg := NewRegistry()
	s := NewSampler(reg, time.Second)
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
