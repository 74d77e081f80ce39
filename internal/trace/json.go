package trace

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Machine-readable registry export. WriteJSON is the JSON twin of WriteText:
// the encoder writes every instrument in sorted name order and every field in
// a fixed order, and histogram buckets are ascending [index, count] pairs —
// so two runs that observed the same values produce byte-identical documents.
// The itcbench series export and the itcfsd debug endpoint both serve it.

// NamedValue is one counter or gauge reading in a Snapshot.
type NamedValue struct {
	Name  string
	Value int64
}

// HistSnapshot is a point-in-time copy of one histogram's state. Bucket i
// holds observations whose microsecond count has bit length i (see
// Histogram); diffing two snapshots of the same histogram yields the
// per-window distribution the Sampler computes quantiles from.
type HistSnapshot struct {
	Name    string
	Buckets [histBuckets]int64
	Count   int64
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
}

// quantile returns the q-quantile of the snapshot as the midpoint of the
// bucket containing that rank, clamped to the recorded min and max — the
// same convention as Histogram.Quantile.
func (h *HistSnapshot) quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	v := bucketQuantile(&h.Buckets, h.Count, q)
	if v < h.Min {
		v = h.Min
	}
	if v > h.Max {
		v = h.Max
	}
	return v
}

// bucketQuantile returns the q-quantile (0 < q <= 1) of count observations
// spread over the logarithmic buckets, as the midpoint of the bucket holding
// that rank. It is the shared core of HistSnapshot.quantile (and through it
// Histogram.Quantile) and the Sampler's per-window quantiles (which diff two
// snapshots and so have no min/max to clamp against).
func bucketQuantile(buckets *[histBuckets]int64, count int64, q float64) time.Duration {
	if count <= 0 {
		return 0
	}
	rank := int64(q * float64(count))
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	var cum int64
	for i, n := range buckets {
		cum += n
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// Snapshot returns a point-in-time copy of every instrument, each section
// sorted by name. A nil registry yields an empty snapshot.
type Snapshot struct {
	Counters []NamedValue
	Gauges   []NamedValue
	Hists    []HistSnapshot
}

// Snapshot copies the registry's current state. It is safe to call
// concurrently with observations.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	type namedHist struct {
		name string
		h    *Histogram
	}
	r.mu.Lock()
	counters := make([]NamedValue, 0, len(r.counters))
	for n, c := range r.counters {
		counters = append(counters, NamedValue{Name: n, Value: c.Value()})
	}
	gauges := make([]NamedValue, 0, len(r.gauges))
	for n, g := range r.gauges {
		gauges = append(gauges, NamedValue{Name: n, Value: g.Value()})
	}
	hists := make([]namedHist, 0, len(r.hists))
	for n, h := range r.hists {
		hists = append(hists, namedHist{name: n, h: h})
	}
	r.mu.Unlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].Name < counters[j].Name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].Name < gauges[j].Name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	s.Counters, s.Gauges = counters, gauges
	s.Hists = make([]HistSnapshot, 0, len(hists))
	for _, nh := range hists {
		s.Hists = append(s.Hists, nh.h.snapshot(nh.name))
	}
	return s
}

// State copies the histogram's current state under its lock, labeled with
// name — the single-instrument twin of Registry.Snapshot, for consumers (the
// SLO layer) that window one histogram on their own cadence.
func (h *Histogram) State(name string) HistSnapshot { return h.snapshot(name) }

// snapshot copies the histogram's state under its lock.
func (h *Histogram) snapshot(name string) HistSnapshot {
	if h == nil {
		return HistSnapshot{Name: name}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Name:    name,
		Buckets: h.buckets,
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
	}
}

// writeJSON writes v as one compact JSON document and a newline. Every
// document the package exports goes through it, so each is exactly what
// encoding/json writes: map keys sorted, struct fields in declaration order.
func writeJSON(w io.Writer, v any) error { return json.NewEncoder(w).Encode(v) }

// WriteJSON writes the registry as a deterministic JSON document: the
// counters, gauges and histograms sections, each an object keyed by
// instrument name, with histogram buckets as ascending [index, count] pairs
// and zero buckets omitted. A nil registry writes an empty document.
func (r *Registry) WriteJSON(w io.Writer) error { return writeJSON(w, r.jsonDoc()) }

// jsonDoc returns the document WriteJSON writes, which Sampler.WriteJSON
// also carries as its "registry" member.
func (r *Registry) jsonDoc() any {
	type hist struct {
		Count   int64      `json:"count"`
		SumNS   int64      `json:"sum_ns"`
		MinNS   int64      `json:"min_ns"`
		MaxNS   int64      `json:"max_ns"`
		P50NS   int64      `json:"p50_ns"`
		P90NS   int64      `json:"p90_ns"`
		P99NS   int64      `json:"p99_ns"`
		Buckets [][2]int64 `json:"buckets"`
	}
	byName := func(vs []NamedValue) map[string]int64 {
		m := make(map[string]int64, len(vs))
		for _, v := range vs {
			m[v.Name] = v.Value
		}
		return m
	}
	s := r.Snapshot()
	doc := struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]hist  `json:"histograms"`
	}{byName(s.Counters), byName(s.Gauges), make(map[string]hist, len(s.Hists))}
	for i := range s.Hists {
		h := &s.Hists[i]
		buckets := [][2]int64{}
		for b, n := range h.Buckets {
			if n != 0 {
				buckets = append(buckets, [2]int64{int64(b), n})
			}
		}
		doc.Histograms[h.Name] = hist{
			Count: h.Count, SumNS: int64(h.Sum), MinNS: int64(h.Min), MaxNS: int64(h.Max),
			P50NS: int64(h.quantile(0.50)), P90NS: int64(h.quantile(0.90)), P99NS: int64(h.quantile(0.99)),
			Buckets: buckets,
		}
	}
	return doc
}
