package trace

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named counters, gauges and latency histograms. A nil
// *Registry is valid and disables metrics: every accessor returns a nil
// instrument whose methods are no-ops, so instrumentation sites never branch
// on configuration.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// FindHistogram returns the named histogram without creating it, or nil.
// Consumers that only read (the volume Advisor) use it so a registry is
// never polluted by lookups.
func (r *Registry) FindHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name]
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that goes up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add shifts the value by n. No-op on a nil gauge.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is one bucket per possible bit length of a microsecond count:
// bucket i holds observations with bits.Len64(µs) == i, i.e. logarithmic
// bucket boundaries at successive powers of two from 1µs to ~584000 years.
const histBuckets = 65

// Histogram records a latency distribution in logarithmic buckets, plus
// exact count, sum, min and max. Quantiles are read from the buckets, so
// they are approximate within one power of two but fully deterministic.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]int64 // guarded by mu
	count   int64              // guarded by mu
	sum     time.Duration      // guarded by mu
	min     time.Duration      // guarded by mu
	max     time.Duration      // guarded by mu
}

// ObserveN records a dimensionless value (a count, e.g. callback fan-out)
// on the same logarithmic buckets, scaling one unit to one microsecond, so
// quantiles read back in the original unit.
func (h *Histogram) ObserveN(n int64) { h.Observe(time.Duration(n) * time.Microsecond) }

// Observe records one latency. Negative values clamp to zero. No-op on a
// nil histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := bits.Len64(uint64(d / time.Microsecond))
	h.mu.Lock()
	h.buckets[i]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile returns the q-quantile (0 < q <= 1) as the midpoint of the bucket
// containing that rank, clamped to the observed min and max. 0 with no
// observations or on a nil histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	s := h.snapshot("")
	return s.quantile(q)
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) time.Duration {
	if i == 0 {
		return 0
	}
	lo := uint64(1) << (i - 1)      // smallest µs with bit length i
	hi := (uint64(1) << i) - 1      // largest µs with bit length i
	mid := time.Duration(lo+hi) / 2 // µs
	return mid * time.Microsecond
}

// WriteText writes every instrument in name order — a deterministic,
// human-readable report.
func (r *Registry) WriteText(w io.Writer) {
	s := r.Snapshot()
	for _, c := range s.Counters {
		fmt.Fprintf(w, "counter %-48s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "gauge   %-48s %d\n", g.Name, g.Value)
	}
	for i := range s.Hists {
		h := &s.Hists[i]
		var mean time.Duration
		if h.Count > 0 {
			mean = h.Sum / time.Duration(h.Count)
		}
		fmt.Fprintf(w, "hist    %-48s n=%d mean=%v p50=%v p90=%v p99=%v p999=%v min=%v max=%v\n",
			h.Name, h.Count, mean, h.quantile(0.50), h.quantile(0.90),
			h.quantile(0.99), h.quantile(0.999), h.Min, h.Max)
	}
}
