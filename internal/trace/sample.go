package trace

import (
	"sort"
	"time"

	"itcfs/internal/sim"
)

// Deterministic head-based sampling. The decision to trace is made once, at
// the root of each operation, from nothing but (class, per-class arrival
// index, seed) — so two same-seed runs keep exactly the same operations, and
// a kept operation is always complete across machines. Two refinements over
// the flat every-nth policy the plane launched with:
//
//   - Seeded phase offsets. Flat modulo keeps root 0, n, 2n, ... of every
//     class — always the cold-start operations. The seed rotates each
//     class's phase so repeated runs under different seeds cover different
//     slices of the workload while any one run stays byte-deterministic.
//   - A slow always-keep path. A sampled-out root still reads the clock at
//     Begin and End; if its closed latency reaches the class threshold, a
//     synthetic root span (attribute slow_kept=1) is recorded after the
//     fact. Children are gone — the decision not to record them was made at
//     Begin — but the tail operation itself, its class, node and extent,
//     lands in the trace and the exemplar table instead of vanishing into a
//     histogram bucket.
//
// Suppressed spans are pooled (Tracer.pool): the sampled-off path allocates
// nothing, which is what lets tracing stay on at 30k clients. The pool makes
// End a hard boundary — a *Span must not be touched after its End returns.

// AttrSlowKept marks a synthetic root span recorded by the slow always-keep
// path; such spans have no children.
const AttrSlowKept = "slow_kept"

// ClassPolicy is the sampling policy every root span class follows, each
// class counting its own roots.
type ClassPolicy struct {
	// Rate keeps one of every Rate roots of a class (<= 1 keeps all).
	Rate int
	// SlowKeep, when positive, records a synthetic span for any sampled-out
	// root whose closed latency is at least this long.
	SlowKeep time.Duration
}

// SamplePolicy is a tracer's full sampling configuration.
type SamplePolicy struct {
	// Seed rotates each class's keep phase (see seededOffset). Zero keeps
	// phase 0 for every class — a flat every-nth-root rate.
	Seed int64
	// Default applies to every class.
	Default ClassPolicy
}

// classState is the per-class sampling counter; offset is fixed at first
// use, n counts root arrivals.
type classState struct {
	offset uint64
	n      uint64
}

// SetPolicy installs a sampling policy, resetting per-class counters. Nil
// receiver is a no-op. Call before traffic flows: mid-run changes restart
// every class's arrival count.
func (t *Tracer) SetPolicy(p SamplePolicy) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.def = p.Default
	if t.def.Rate < 1 {
		t.def.Rate = 1
	}
	t.seed = p.Seed
	t.classes = make(map[string]*classState)
	t.mu.Unlock()
}

// classLocked resolves (creating on first use) the class's sampling state.
//
//itcvet:holds mu
func (t *Tracer) classLocked(name string) *classState {
	cs := t.classes[name]
	if cs == nil {
		cs = &classState{offset: seededOffset(t.seed, name, t.def.Rate)}
		t.classes[name] = cs
	}
	return cs
}

// seededOffset is the class's keep phase: FNV-1a over (seed, class) reduced
// mod rate. Zero seed (or a keep-all rate) pins phase 0, preserving the
// pre-policy behaviour of keeping the very first root.
func seededOffset(seed int64, class string, rate int) uint64 {
	if seed == 0 || rate <= 1 {
		return 0
	}
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(uint64(seed) >> (8 * i)))
		h *= fnvPrime
	}
	for i := 0; i < len(class); i++ {
		h ^= uint64(class[i])
		h *= fnvPrime
	}
	return h % uint64(rate)
}

// getSuppressed returns a pooled suppressed span owned by this tracer. The
// span returns to the pool at End.
func (t *Tracer) getSuppressed() *Span {
	s, _ := t.pool.Get().(*Span)
	if s == nil {
		s = &Span{}
	}
	s.owner = t
	return s
}

// finishSuppressed runs the slow always-keep check and recycles the span.
// Only suppressed roots carry a slow threshold; suppressed descendants skip
// straight to the pool.
func (t *Tracer) finishSuppressed(s *Span) {
	if s.slow > 0 {
		end := t.now()
		if d := end.Sub(s.start); d >= s.slow {
			t.mu.Lock()
			t.nextTrace++
			t.nextSpan++
			kept := &Span{
				tr:    t,
				name:  s.name,
				node:  s.node,
				ctx:   SpanContext{Trace: t.nextTrace, Span: t.nextSpan},
				start: s.start,
				end:   end,
				attrs: []Attr{{Key: AttrSlowKept, Int: 1}},
				ended: true,
			}
			t.spans = append(t.spans, kept)
			t.noteRootEndLocked(kept)
			t.mu.Unlock()
		}
	}
	*s = Span{}
	t.pool.Put(s)
}

// Exemplar links the metrics plane back to the trace plane: the worst
// recorded root of one class over some interval, by ID. The Sampler harvests
// these each window (TakeExemplars), so every metric window can cite the
// trace that best explains its tail.
type Exemplar struct {
	Class string
	Trace uint64
	Span  uint64
	Dur   sim.Duration
	At    sim.Time // when the span closed
	// SlowKept marks a synthetic slow-keep promotion: the root's duration
	// survived but its descendants were suppressed, so the trace has no
	// critical-path decomposition.
	SlowKept bool
}

// noteRootEndLocked updates the per-class worst-since-harvest table with a
// finished recorded root. A fully-traced root is preferred over a synthetic
// slow-keep promotion regardless of duration — the exemplar's job is to
// explain the tail, and only a decomposable trace can; among roots of equal
// kind, worst duration wins and ties keep the earlier span — deterministic.
//
//itcvet:holds mu
func (t *Tracer) noteRootEndLocked(s *Span) {
	d := s.end.Sub(s.start)
	slow := s.IntAttr(AttrSlowKept) == 1
	w, ok := t.worst[s.name]
	if ok && slow && !w.SlowKept {
		return // never displace a decomposable exemplar with a synthetic one
	}
	if !ok || (!slow && w.SlowKept) || d > w.Dur {
		t.worst[s.name] = Exemplar{
			Class:    s.name,
			Trace:    s.ctx.Trace,
			Span:     s.ctx.Span,
			Dur:      d,
			At:       s.end,
			SlowKept: slow,
		}
	}
}

// TakeExemplars returns the worst recorded root per class since the last
// call (sorted by class) and resets the table. Nil receiver returns nil.
func (t *Tracer) TakeExemplars() []Exemplar {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Exemplar, 0, len(t.worst))
	for _, e := range t.worst {
		out = append(out, e)
	}
	for k := range t.worst {
		delete(t.worst, k)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// TraceSpans returns the finished spans of one trace in (start, span ID)
// order — the input Analyze and the SLO layer's critical-path
// embedding want for a single exemplar.
func (t *Tracer) TraceSpans(trace uint64) []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []*Span
	for _, s := range t.spans {
		if s.ended && s.ctx.Trace == trace {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].ctx.Span < out[j].ctx.Span
	})
	return out
}
