// Package obs exercises driftcheck's canonical-name invariant: metric and
// flight-event names used outside internal/trace must come from its tables,
// not be minted as literals at the call site.
package obs

import "itcfs/internal/trace"

func instrument(reg *trace.Registry, rec *trace.Recorder, link string, vol uint32) {
	// Canonical constants and composed names pass.
	reg.Counter(trace.MetricVenusCacheHits).Inc()
	reg.Counter(trace.VolOpsMetric(vol)).Inc()
	reg.Gauge("net." + link + ".queue").Add(1)
	rec.Log(trace.EventRPCRetry, "ws0", "call 12 attempt 2")

	// Literals minted at the call site have drifted from the tables.
	reg.Counter("venus.cache.hits").Inc()         // want `Registry\.Counter name "venus\.cache\.hits" is a raw string literal`
	reg.Histogram("mystery.latency")              // want `Registry\.Histogram name "mystery\.latency" is a raw string literal`
	reg.FindHistogram("mystery.latency")          // want `Registry\.FindHistogram name "mystery\.latency" is a raw string literal`
	rec.Log("rogue.event", "ws0", "never tabled") // want `Recorder\.Log name "rogue\.event" is a raw string literal`

	// The standard escape hatch is honored, with an auditable reason.
	//itcvet:allow drift -- scratch gauge local to a one-off calibration run
	reg.Gauge("scratch.calibration").Add(1)
}
