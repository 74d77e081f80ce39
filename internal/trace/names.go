package trace

import "strconv"

// Canonical observability names. Every metric a layer registers and every
// flight-recorder event kind it logs is named here, in one table, so
// exporters, dashboards, the Sampler's probes, the SLO layer and the
// docs all reference the same strings — and itcvet's driftcheck flags any
// instrument or event named from a string literal outside this package,
// which is how emitted names and their consumers were kept from drifting
// apart once the cell grew past the point where anyone could eyeball a
// metrics dump.
//
// Naming convention: "<layer>.<object>[.<qualifier>]", with per-entity
// families built by the helper functions below ("vice.vol.<id>.ops",
// "net.<link>.bytes", ...). Series derived from histograms append the
// Sampler's ".n"/".p50"/".p90"/".p99" suffixes to these names.

// Counters.
const (
	MetricVenusCacheHits      = "venus.cache.hits"
	MetricVenusCacheMisses    = "venus.cache.misses"
	MetricVenusFailover       = "venus.failover"
	MetricVenusCallbackBreaks = "venus.callback_breaks"

	MetricRPCRetries           = "rpc.retries"
	MetricRPCCallTimeouts      = "rpc.call.timeouts"
	MetricRPCReplyCacheReplays = "rpc.reply_cache.replays"
	MetricRPCDupSuppressed     = "rpc.dup_suppressed"

	MetricViceLockConflicts           = "vice.lock_conflicts"
	MetricViceCallbackBreaks          = "vice.callback.breaks"
	MetricViceCallbackBreakRPCs       = "vice.callback.break_rpcs"
	MetricViceSalvageReplayed         = "vice.salvage.replayed"
	MetricViceSalvageDiscardedRecords = "vice.salvage.discarded_records"
	MetricViceSalvageDiscardedBytes   = "vice.salvage.discarded_bytes"
	MetricViceSalvageOrphansRemoved   = "vice.salvage.orphans_removed"
	MetricViceSalvageDanglingEntries  = "vice.salvage.dangling_entries"
	MetricViceSalvageLinksFixed       = "vice.salvage.links_fixed"

	MetricReplicaReleaseInstalls     = "replica.release.installs"
	MetricReplicaReleasePushFailures = "replica.release.push_failures"

	// MetricFlightDropped counts flight-recorder events overwritten by ring
	// wrap — evidence in the metrics plane that the audit trail is lossy.
	MetricFlightDropped = "trace.flight.dropped"
)

// Histograms.
const (
	MetricVenusOpenLatency  = "venus.open.latency"
	MetricVenusStoreLatency = "venus.store.latency"

	MetricRPCServeLatency = "rpc.serve.latency"
	MetricRPCCallLatency  = "rpc.call.latency"
	// MetricRPCAcceptLatency is the wall-clock handshake cost of accepting
	// one authenticated peer; observed only by the TCP daemon.
	MetricRPCAcceptLatency = "rpc.accept.latency"

	MetricViceCallbackFanout = "vice.callback.fanout"
	MetricViceCallbackBatch  = "vice.callback.batch"
)

// Per-entity metric families.

// RPCInflightGauge names the per-endpoint in-flight call gauge.
func RPCInflightGauge(node string) string { return "rpc." + node + ".inflight" }

// VolOpsMetric names the per-volume hot-path operation counter a Vice
// server maintains.
func VolOpsMetric(vol uint32) string {
	return "vice.vol." + strconv.FormatUint(uint64(vol), 10) + ".ops"
}

// VolLatencyMetric names the per-volume service-time histogram.
func VolLatencyMetric(vol uint32) string {
	return "vice.vol." + strconv.FormatUint(uint64(vol), 10) + ".latency"
}

// LinkFramesMetric, LinkBytesMetric, LinkQueueMetric and LinkBusyGauge name
// the per-link instruments the simulated network registers.
func LinkFramesMetric(link string) string { return "net." + link + ".frames" }
func LinkBytesMetric(link string) string  { return "net." + link + ".bytes" }
func LinkQueueMetric(link string) string  { return "net." + link + ".queue" }
func LinkBusyGauge(link string) string    { return "net." + link + ".busy_ns" }

// Sampler probe series (no registry instrument behind them; the names live
// here so dashboards and the overload detector share them with the cell).

// ServerCPUSeries names the sampled per-window CPU busy-time series (ns).
func ServerCPUSeries(server string) string { return "server." + server + ".cpu.busy_ns" }

// ServerDiskSeries names the sampled per-window disk busy-time series.
func ServerDiskSeries(server string) string { return "server." + server + ".disk.busy_ns" }

// ServerQueueSeries names the sampled instantaneous CPU queue-depth series.
func ServerQueueSeries(server string) string { return "server." + server + ".cpu.queue" }

// LinkBusySeries names the sampled per-window link busy-time series.
func LinkBusySeries(link string) string { return "net." + link + ".link_busy_ns" }

// SLOBurnSeries names the derived per-class burn-rate series the SLO layer
// records on the sampling cadence (value = burn rate x 1000, integral so the
// series plane stays integer-only and byte-deterministic).
func SLOBurnSeries(class string) string { return "slo." + class + ".burn_milli" }

// Flight-recorder event kinds.
const (
	EventRPCRetry = "rpc.retry"

	EventVenusFailover       = "venus.failover"
	EventVenusDegradedEnter  = "venus.degraded.enter"
	EventVenusDegradedExit   = "venus.degraded.exit"
	EventVenusReconnectSweep = "venus.reconnect.sweep"

	EventViceCallbackStorm = "vice.callback.storm"
	EventViceVolumeMove    = "vice.volume.move"
	EventViceSalvage       = "vice.salvage"

	EventReplicaRelease = "replica.release"

	// EventSLOBreach and EventSLORecover bracket an SLO burn-rate episode;
	// the breach detail embeds the critical-path decomposition of the worst
	// sampled exemplar span (see monitor.SLOMonitor).
	EventSLOBreach  = "slo.breach"
	EventSLORecover = "slo.recover"
)

// Span classes. Sampling rates, slow-keep thresholds, exemplars and SLO
// objectives are all keyed by the root span's class, so these share the
// table with the metric names derived from them (class + ".latency").
const (
	SpanVenusOpen         = "venus.open"
	SpanVenusStore        = "venus.store"
	SpanVenusValidate     = "venus.validate"
	SpanVenusFetch        = "venus.fetch"
	SpanVenusRevalidate   = "venus.revalidate"
	SpanVenusValidateBulk = "venus.validate.bulk"
)
