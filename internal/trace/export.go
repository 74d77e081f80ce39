package trace

import (
	"io"
	"strings"
)

// usec converts a virtual time offset or duration to microseconds, the unit
// Chrome trace events use. The quotient is exact to the nanosecond below
// 2^53 ns (about 104 days of virtual time).
func usec(ns int64) float64 { return float64(ns) / 1e3 }

// ExportChrome writes the tracer's finished spans as Chrome trace-event JSON
// ("traceEvents" array of complete "X" events), loadable in Perfetto or
// chrome://tracing. Machines become processes (pid, named via process_name
// metadata), traces become threads (tid), and attributes become args. The
// output is deterministic: spans are emitted in (start, span ID) order, pids
// in first-appearance order, and args in sorted key order; an attribute set
// twice keeps its last value.
func (t *Tracer) ExportChrome(w io.Writer) error {
	// A process_name metadata event has no ts or dur, so it has a type of
	// its own.
	type meta struct {
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Name string            `json:"name"`
		Args map[string]string `json:"args"`
	}
	type event struct {
		Ph   string         `json:"ph"`
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	spans := t.Spans()
	pids := make(map[string]int)
	events := []any{}
	for _, s := range spans {
		if _, ok := pids[s.node]; !ok {
			pids[s.node] = len(pids)
			events = append(events, meta{Ph: "M", Pid: pids[s.node], Name: "process_name",
				Args: map[string]string{"name": s.node}})
		}
	}
	for _, s := range spans {
		cat, _, _ := strings.Cut(s.name, ".")
		args := map[string]any{"span": s.ctx.Span, "parent": s.parent}
		for _, a := range s.attrs {
			if a.IsStr {
				args[a.Key] = a.Str
			} else {
				args[a.Key] = a.Int
			}
		}
		events = append(events, event{
			Ph: "X", Name: s.name, Cat: cat, Pid: pids[s.node], Tid: s.ctx.Trace,
			Ts: usec(int64(s.start)), Dur: usec(int64(s.Duration())),
			Args: args,
		})
	}
	return writeJSON(w, struct {
		TraceEvents []any `json:"traceEvents"`
	}{events})
}
