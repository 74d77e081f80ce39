// Package trace is a fixture stub of the real itcfs/internal/trace: just
// enough surface for driftcheck's canonical-name invariant to resolve
// receiver types and constants.
package trace

const (
	MetricVenusCacheHits = "venus.cache.hits"
	EventRPCRetry        = "rpc.retry"
)

// VolOpsMetric composes a per-volume counter name; composed names are
// canonical by construction.
func VolOpsMetric(vol uint32) string { return "vice.vol.x.ops" }

type Registry struct{}

func (r *Registry) Counter(name string) *Counter         { return nil }
func (r *Registry) Gauge(name string) *Gauge             { return nil }
func (r *Registry) Histogram(name string) *Histogram     { return nil }
func (r *Registry) FindHistogram(name string) *Histogram { return nil }

type Counter struct{}

func (c *Counter) Inc() {}

type Gauge struct{}

func (g *Gauge) Add(d int64) {}

type Histogram struct{}

func (h *Histogram) Observe(d int64) {}

type Recorder struct{}

func (r *Recorder) Log(kind, node, detail string) {}
