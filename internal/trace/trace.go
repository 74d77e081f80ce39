// Package trace is the observability plane of the reproduction: a
// deterministic distributed-tracing and metrics subsystem in the style of
// span-based wide-area tracers, adapted to the discrete-event simulator.
//
// A Tracer records Spans — named intervals of virtual time with parent/child
// causality. Spans nest two ways: within a process, via a proc-local ambient
// span (sim.Proc.Trace), so instrumented layers need no plumbing through
// interfaces; and across RPC boundaries, via a wire.TraceHeader carried in
// every call packet. Timestamps come from the simulation kernel, and span and
// trace IDs are assigned in creation order, so two runs with the same seed
// produce byte-identical exported traces.
//
// Tracing is near-zero-cost when disabled: a nil *Tracer begins nil *Spans,
// and every Span method is a nil-receiver no-op, so instrumentation sites pay
// one nil check and no allocation. Sampling keeps cost bounded when enabled:
// a sampled-out root yields a *suppressed* span (non-nil, recording nothing)
// that still maintains the ambient stack and propagates a zero context, so an
// entire operation is traced or not traced as a unit across machines.
// Suppressed spans come from a pool and return to it at End, so the
// sampled-off path is allocation-free too (see sample.go for the policy:
// seeded per-class rates, slow always-keep, exemplars). The pool makes End a
// hard boundary: no Span may be used after its End returns.
package trace

import (
	"sort"
	"sync"
	"time"

	"itcfs/internal/sim"
	"itcfs/internal/wire"
)

// SpanContext identifies a span for propagation across an RPC boundary. It
// is the wire representation itself: sixteen bytes, always present in call
// packets, zero when the caller is untraced.
type SpanContext = wire.TraceHeader

// Span and attribute names shared between the instrumented layers and the
// critical-path analyzer. The analyzer keys on SpanRPCCall: everything below
// it in a trace happened on the far side of the network and is accounted by
// the attributes the RPC client stamps on the call span.
const (
	SpanRPCCall  = "rpc.call"  // client side of one RPC (send to reply)
	SpanRPCServe = "rpc.serve" // server side of one RPC (worker lifetime)

	AttrOp          = "op"            // RPC opcode
	AttrNetQueueNs  = "net_queue_ns"  // time frames waited for busy links
	AttrNetSerialNs = "net_serial_ns" // time frames clocked onto links
	AttrNetPropNs   = "net_prop_ns"   // propagation and bridge forwarding
	AttrServerNs    = "server_ns"     // server service time (dispatch + cost charges)
)

// Attr is one key/value annotation on a span. Attributes are stored in the
// order they were set, never in a map, so exports are deterministic.
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

// Span is one named interval of virtual time within a trace. The zero of
// usefulness is a nil *Span: every method is a nil-receiver no-op, which is
// the disabled-tracing fast path. A non-nil span with a nil tracer is
// *suppressed* (its root was sampled out): it maintains the ambient stack and
// propagates a zero context but records nothing.
type Span struct {
	tr     *Tracer // nil for suppressed spans
	name   string
	node   string // machine the span ran on, for per-process grouping
	ctx    SpanContext
	parent uint64 // parent span ID within the same trace; 0 for roots
	start  sim.Time
	end    sim.Time
	attrs  []Attr
	ended  bool

	proc *sim.Proc // proc whose ambient slot this span occupies, until End
	prev any       // saved previous ambient value

	// Suppressed spans only: the tracer whose pool the span returns to at
	// End, and the class's slow always-keep threshold (set on suppressed
	// roots; zero elsewhere).
	owner *Tracer
	slow  time.Duration
}

// Tracer records spans against a clock. Create one with New; a nil *Tracer
// is valid and disables tracing entirely.
type Tracer struct {
	mu        sync.Mutex
	now       func() sim.Time        // set at construction, immutable afterwards
	def       ClassPolicy            // guarded by mu — every class's policy
	seed      int64                  // guarded by mu — rotates class keep phases
	classes   map[string]*classState // guarded by mu — per-class arrival counters
	worst     map[string]Exemplar    // guarded by mu — worst root per class since harvest
	nextTrace uint64                 // guarded by mu
	nextSpan  uint64                 // guarded by mu
	spans     []*Span                // guarded by mu

	// pool recycles suppressed spans; sync.Pool carries its own sync.
	pool sync.Pool
}

// New returns a tracer reading timestamps from now — typically the simulation
// kernel's clock, or a monotonic wall offset for real transports.
func New(now func() sim.Time) *Tracer {
	return &Tracer{
		now:     now,
		def:     ClassPolicy{Rate: 1},
		classes: make(map[string]*classState),
		worst:   make(map[string]Exemplar),
	}
}

// Reset discards recorded spans — the boundary between an observation
// window and what preceded it (bootstrap, warm-up). ID counters keep
// increasing so spans recorded after a Reset are unaffected by when (or
// whether) it happened only in their numbering's starting point, which is
// itself deterministic.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// Current returns the ambient span of the process, or nil.
func Current(p *sim.Proc) *Span {
	if p == nil {
		return nil
	}
	s, _ := p.Trace.(*Span)
	return s
}

// install makes s the ambient span of p until End.
func (s *Span) install(p *sim.Proc) *Span {
	if p != nil {
		s.proc = p
		s.prev = p.Trace
		p.Trace = s
	}
	return s
}

// Begin starts a span on process p: a child of p's ambient span if there is
// one, otherwise a new root subject to the sampling policy. The span becomes
// p's ambient span until End. A nil tracer returns nil; a nil p is allowed
// (the span is simply not ambient anywhere).
func (t *Tracer) Begin(p *sim.Proc, name, node string) *Span {
	if t == nil {
		return nil
	}
	parent := Current(p)
	if parent != nil && parent.tr == nil {
		return t.getSuppressed().install(p) // suppressed parent: stay suppressed
	}
	t.mu.Lock()
	var s *Span
	if parent != nil {
		s = t.startLocked(name, node, parent.ctx.Trace, parent.ctx.Span)
		t.mu.Unlock()
	} else {
		cs := t.classLocked(name)
		n := cs.n
		cs.n++
		if rate := t.def.Rate; rate > 1 && (n+cs.offset)%uint64(rate) != 0 {
			// Sampled out: suppress the whole operation. The root remembers
			// its class and (when the policy has a slow threshold) its start,
			// so End can still promote a tail-latency operation to a
			// recorded span.
			slow := t.def.SlowKeep
			t.mu.Unlock()
			s = t.getSuppressed()
			s.name, s.node = name, node
			if slow > 0 {
				s.slow = slow
				s.start = t.now()
			}
		} else {
			t.nextTrace++
			s = t.startLocked(name, node, t.nextTrace, 0)
			t.mu.Unlock()
		}
	}
	return s.install(p)
}

// BeginRemote starts the server-side span of a call that arrived with the
// given propagation context, as p's ambient span until End. A zero context
// means what p's kind of process says: a root span on a real server, none in
// the simulator.
func (t *Tracer) BeginRemote(p *sim.Proc, ctx SpanContext, name, node string) *Span {
	if t == nil {
		return nil
	}
	if ctx == (SpanContext{}) {
		// A process without a kernel serves a call that came over a real
		// transport from a client that does not trace: the span starts a
		// root rather than going unrecorded. Under a simulated process the
		// caller was sampled out, so the server span is suppressed too:
		// every simulated endpoint shares one tracer, and a traced caller
		// always sends a non-zero context.
		if p.Kernel() == nil {
			return t.Begin(p, name, node)
		}
		return t.getSuppressed().install(p)
	}
	t.mu.Lock()
	s := t.startLocked(name, node, ctx.Trace, ctx.Span)
	t.mu.Unlock()
	return s.install(p)
}

// startLocked allocates and registers a recording span. Caller holds t.mu.
//
//itcvet:holds mu
func (t *Tracer) startLocked(name, node string, traceID, parent uint64) *Span {
	t.nextSpan++
	s := &Span{
		tr:     t,
		name:   name,
		node:   node,
		ctx:    SpanContext{Trace: traceID, Span: t.nextSpan},
		parent: parent,
		start:  t.now(),
	}
	t.spans = append(t.spans, s)
	return s
}

// End finishes the span, restoring the process's previous ambient span and
// stamping the end time. Safe on nil spans. A span must not be used after
// End: suppressed spans return to their tracer's pool here (after the slow
// always-keep check), and recorded roots update the exemplar table.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.proc != nil && s.proc.Trace == s {
		s.proc.Trace = s.prev
		s.proc, s.prev = nil, nil
	}
	if s.tr == nil {
		if s.owner != nil {
			s.owner.finishSuppressed(s)
		}
		return
	}
	if s.ended {
		return
	}
	s.tr.mu.Lock()
	s.end = s.tr.now()
	s.ended = true
	if s.parent == 0 {
		s.tr.noteRootEndLocked(s)
	}
	s.tr.mu.Unlock()
}

// Context returns the span's propagation context; zero for nil or suppressed
// spans, which is exactly what goes on the wire for untraced calls.
func (s *Span) Context() SpanContext {
	if s == nil || s.tr == nil {
		return SpanContext{}
	}
	return s.ctx
}

// SetInt annotates the span. No-op on nil and suppressed spans.
func (s *Span) SetInt(key string, v int64) {
	if s == nil || s.tr == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
}

// SetStr annotates the span. No-op on nil and suppressed spans.
func (s *Span) SetStr(key, v string) {
	if s == nil || s.tr == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: v, IsStr: true})
}

// IntAttr returns the last integer attribute set under key, or 0.
func (s *Span) IntAttr(key string) int64 {
	if s == nil {
		return 0
	}
	var v int64
	for _, a := range s.attrs {
		if a.Key == key && !a.IsStr {
			v = a.Int
		}
	}
	return v
}

// Name returns the span's name.
func (s *Span) Name() string { return s.name }

// Node returns the machine the span ran on.
func (s *Span) Node() string { return s.node }

// Parent returns the parent span ID within the trace; 0 for roots.
func (s *Span) Parent() uint64 { return s.parent }

// Start returns the span's start time.
func (s *Span) Start() sim.Time { return s.start }

// Duration returns the span's extent in virtual time.
func (s *Span) Duration() sim.Duration { return s.end.Sub(s.start) }

// Spans returns every finished span, ordered by start time then span ID —
// a total, deterministic order. Unfinished spans (long-lived daemon loops
// still open when the run stops) are omitted.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.ended {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].ctx.Span < out[j].ctx.Span
	})
	return out
}
