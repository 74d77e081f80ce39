package trace

import (
	"fmt"
	"io"
	"sync"

	"itcfs/internal/sim"
)

// Flight recorder: a bounded ring of structured operational events —
// callback break storms, RPC retries, degraded-mode entry and exit,
// salvages, reconnect sweeps — each stamped with the clock the recorder was
// built over (virtual time in the simulator, a wall-clock offset in itcfsd).
// Where the metrics plane answers "how much", the flight recorder answers
// "what happened, and when": it is the audit trail an operator reads after
// an incident. A nil *Recorder is valid and disables recording; hot call
// sites gate their fmt.Sprintf detail behind a nil check so the disabled
// path costs nothing.

// Event is one recorded operational event.
type Event struct {
	Seq    uint64   // global arrival order, never reused
	At     sim.Time // recorder-clock timestamp
	Kind   string   // dotted event class, e.g. "venus.degraded.enter"
	Node   string   // machine the event happened on
	Detail string   // free-form context
}

// Recorder is the bounded event ring.
type Recorder struct {
	// now is set at construction, immutable afterwards.
	now func() sim.Time

	mu     sync.Mutex
	events []Event  // guarded by mu — ring storage
	head   int      // guarded by mu — oldest event once full
	cap    int      // guarded by mu — ring capacity
	seq    uint64   // guarded by mu — events ever logged
	drops  *Counter // guarded by mu — MetricFlightDropped, when attached
}

// AttachMetrics makes ring evictions visible in the metrics plane: every
// event overwritten by wrap increments MetricFlightDropped, so a lossy audit
// trail announces itself instead of silently forgetting. No-op on a nil
// recorder or registry.
func (r *Recorder) AttachMetrics(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	c := reg.Counter(MetricFlightDropped)
	r.mu.Lock()
	r.drops = c
	r.mu.Unlock()
}

// NewRecorder returns a recorder holding the most recent capacity events
// (non-positive = 1024), timestamping each with now.
func NewRecorder(capacity int, now func() sim.Time) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Recorder{now: now, cap: capacity}
}

// Log appends one event, evicting the oldest when full. No-op on a nil
// recorder; callers building an expensive detail string should gate it with
// their own nil check.
func (r *Recorder) Log(kind, node, detail string) {
	if r == nil {
		return
	}
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	e := Event{Seq: r.seq, At: at, Kind: kind, Node: node, Detail: detail}
	if len(r.events) < r.cap {
		r.events = append(r.events, e)
	} else {
		r.events[r.head] = e
		r.head = (r.head + 1) % len(r.events)
		r.drops.Inc()
	}
}

// Events returns the retained events in arrival order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.head:]...)
	out = append(out, r.events[:r.head]...)
	return out
}

// Total returns how many events were ever logged (retained or evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// WriteText dumps the ring deterministically: a header with retained and
// evicted counts, then one line per event in arrival order.
func (r *Recorder) WriteText(w io.Writer) {
	if r == nil {
		return
	}
	evs := r.Events()
	total := r.Total()
	fmt.Fprintf(w, "flight recorder: %d events retained, %d dropped (counted in %s)\n",
		len(evs), total-uint64(len(evs)), MetricFlightDropped)
	for _, e := range evs {
		fmt.Fprintf(w, "[%6d] %-14v %-28s %-12s %s\n", e.Seq, e.At, e.Kind, e.Node, e.Detail)
	}
}
