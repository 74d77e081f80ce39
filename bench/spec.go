package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// The benchmark's vocabulary: every workload and metric name the program
// emits is declared here once. BENCHMARK.json at the repo root is generated
// from these tables (-benchmark-json); a run refuses to start, and a test
// fails, if the two drift.

// MetricSpec declares one metric: its name, unit, which direction is better
// and, for end-to-end metrics, the share of the parent's median by which it
// may worsen before a change counts as a regression. Per-layer metrics carry
// no bound.
type MetricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// WorkloadSpec declares one workload and why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workload names.
const (
	wlAndrewSmall = "andrew_small"
	wlBulkStream  = "bulk_stream"
	wlWarmReads   = "warm_reads"
	wlSharedChurn = "shared_churn"
	wlMixedRW2C   = "mixed_rw_2c"
	wlSimCell     = "sim_cell"
)

var workloadSpecs = []WorkloadSpec{
	{wlAndrewSmall, "paper's five phases on small files: per-RPC fixed cost times RPCs per op plus one fsync per mutation dominate; bytes are negligible"},
	{wlBulkStream, "4 MiB files cycled through a 16 MiB cache so every open misses: per-byte costs of every layer add in series; fixed costs vanish"},
	{wlWarmReads, "Zipf reads of a pre-fetched working set: nothing below venus runs (0 RPCs), so rpc/secure/wire/vice/store changes must not move it"},
	{wlSharedChurn, "writer and reader alternate on one volume: every store breaks a callback over the back channel, every re-read misses and must see the new bytes"},
	{wlMixedRW2C, "two clients on two cores and two volumes, durable 4 KiB stores beside cold 64 KiB fetches: group commit, lock hold times, per-call goroutines"},
	{wlSimCell, "the simulator regime (batched E14 mix in virtual time): guards code both regimes share; TCP, fsync and walstore changes must not move it"},
}

const (
	lower  = "lower"
	higher = "higher"
)

// End-to-end metric names. Every workload emits every one of them.
const (
	mSetupS          = "setup_s"
	mAllocsPerOp     = "allocs_per_op"
	mAllocBytesPerOp = "alloc_bytes_per_op"
	mRSSMB           = "rss_mb"
)

// endToEndSpecs is BENCHMARK.json's end-to-end list: what the driver gates.
// The contract wants one list that every workload emits, never 0, each metric
// holding its bound (at most 25 %) on every workload, or the benchmark is
// refused. The bounds are three to five times the widest interquartile
// spread seen on any workload over ten-seed sets at the seed commit (README,
// "Numbers"), capped at 25 %. The two allocation counts repeat almost exactly
// and are the tight gates.
var endToEndSpecs = []MetricSpec{
	{mSetupS, "s", lower, 0.25},
	{mAllocsPerOp, "count", lower, 0.05},
	{mAllocBytesPerOp, "B", lower, 0.02},
	{mRSSMB, "MiB", lower, 0.20},
}

// Names of what every end-to-end run reports beside that list.
const (
	mOpsPerS    = "ops_per_s"
	mOpP50Us    = "op_p50_us"
	mCPUUsPerOp = "cpu_us_per_op"
	mMaxRSSMB   = "max_rss_mb"
)

// reportedSpecs are gated by -compare, workload by workload, with the
// unresolved verdict where a side's runs spread wider than the bound. They
// cannot be in the driver's list. The timings: this sandbox runs up to twice
// as slow for minutes at a time (CPU and disk alike), and ten runs of one
// commit spread by 5-64 % on ops_per_s depending on the workload and the
// hour. Peak RSS: one late garbage collection sets it, and on warm_reads ten
// runs spread by 10-39 %.
var reportedSpecs = []MetricSpec{
	{mOpsPerS, "1/s", higher, 0.25},
	{mOpP50Us, "us", lower, 0.25},
	{mCPUUsPerOp, "us", lower, 0.25},
	{mMaxRSSMB, "MiB", lower, 0.25},
}

// comparedSpecs is what -compare judges: the driver's list, then the rest.
var comparedSpecs = append(append([]MetricSpec(nil), endToEndSpecs...), reportedSpecs...)

// Per-layer metric names, grouped by the module they describe.
const (
	mVenusSelfUs       = "venus.self_us_per_op"
	mVenusHitRatio     = "venus.hit_ratio"
	mVenusEvictions    = "venus.evictions_per_kop"
	mVenusFetchRPCs    = "venus.fetch_rpcs_per_op"
	mVenusStoreRPCs    = "venus.store_rpcs_per_op"
	mVenusStatRPCs     = "venus.stat_rpcs_per_op"
	mVenusOtherRPCs    = "venus.other_rpcs_per_op"
	mVenusRPCsPerOp    = "venus.rpcs_per_op"
	mVenusBreaksPerSt  = "venus.breaks_per_store"
	mVenusBreakHandler = "venus.break_handler_us_p50"
	mVenusColdP50      = "venus.open_cold_p50_us"
	mVenusColdP99      = "venus.open_cold_p99_us"
	mVenusWarmP50      = "venus.open_warm_p50_us"
	mVenusWarmP99      = "venus.open_warm_p99_us"
	mVenusStoreP50     = "venus.store_p50_us"
	mVenusStoreP99     = "venus.store_p99_us"
	mVenusStatP50      = "venus.stat_p50_us"
	mVenusStatP99      = "venus.stat_p99_us"

	mVirtueOverhead = "virtue.overhead_us"
	mUnixfsSmallOp  = "unixfs.small_op_us"
	mUnixfsWriteNsB = "unixfs.write_ns_per_byte"
	mUnixfsReadNsB  = "unixfs.read_ns_per_byte"

	mRPCCallUsPerOp  = "rpc.call_us_per_op"
	mRPCStatusP50    = "rpc.status_call_us_p50"
	mRPCFetchP50     = "rpc.fetch_call_us_p50"
	mRPCStoreP50     = "rpc.store_call_us_p50"
	mRPCNullRTT      = "rpc.null_rtt_us_p50"
	mRPCSelfPerCall  = "rpc.self_us_per_call"
	mRPCSelfNsPerB   = "rpc.self_ns_per_byte_4m"
	mRPCUnexplained  = "rpc.unexplained_us_per_op"
	mSecureSeal128   = "secure.seal_us_128b"
	mSecureOpen128   = "secure.open_us_128b"
	mSecureSealNsB   = "secure.seal_ns_per_byte_4m"
	mSecureOpenNsB   = "secure.open_ns_per_byte_4m"
	mSecureAllocs    = "secure.allocs_per_seal"
	mSecureAllocB    = "secure.alloc_bytes_per_byte"
	mSecureEst       = "secure.est_us_per_op"
	mWireFrame128    = "wire.frame_us_128b"
	mWireFrameNsB    = "wire.frame_ns_per_byte_4m"
	mWireAllocs      = "wire.allocs_per_frame"
	mWireMarshal     = "wire.marshal_us_status"
	mWireEst         = "wire.est_us_per_op"
	mNetWriteCalls   = "net.write_calls_per_rpc"
	mNetReadCalls    = "net.read_calls_per_rpc"
	mNetBytesPerUser = "net.bytes_per_user_byte"
	mNetWriteUs      = "net.write_us_per_op"

	mViceDispatchUs  = "vice.dispatch_us_per_op"
	mViceFetchP50    = "vice.fetch_us_p50"
	mViceStoreP50    = "vice.store_us_p50"
	mViceStatusP50   = "vice.status_us_p50"
	mViceSelfUs      = "vice.self_us_per_op"
	mViceBreakWait   = "vice.break_wait_us_p50"
	mViceCallsPerS   = "vice.calls_per_s"
	mViceMaxConc     = "vice.max_concurrent_dispatch"
	mVolumeWriteNsB  = "volume.write_ns_per_byte_4m"
	mVolumeReadNsB   = "volume.read_ns_per_byte_4m"
	mVolumeSmallMut  = "volume.small_mutation_us"
	mVolumeSerialize = "volume.serialize_ns_per_byte"

	mStoreCommitP50   = "store.commit_us_p50"
	mStoreSyncP50     = "store.sync_wait_us_p50"
	mStoreSyncP99     = "store.sync_wait_us_p99"
	mStoreCheckpoints = "store.checkpoints"
	mStoreCkptMs      = "store.checkpoint_ms_total"
	mWalSelfUs        = "walstore.self_us_per_mut"
	mWalBytesPerMut   = "walstore.bytes_per_mut"
	mFSAppendsPerMut  = "fs.appends_per_mut"
	mFSFsyncsPerMut   = "fs.fsyncs_per_mut"
	mFSAppendP50      = "fs.append_us_p50"
	mFSFsyncP50       = "fs.fsync_us_p50"
	mFSDiskPerUser    = "fs.disk_bytes_per_user_byte"

	mSimParkResume  = "sim.park_resume_ns"
	mSimTimerEvent  = "sim.timer_event_ns"
	mSimAllocsEvent = "sim.allocs_per_event"
	mNetsimDeliver  = "netsim.deliver_ns"
	mSimClientHours = "sim.client_hours"

	mBenchTraceOverhead = "bench.trace_overhead_pct"
	mBenchExplained     = "bench.explained_pct"
	mBenchSampleEvery   = "bench.latency_sample_every"
	mBenchMBPerS        = "bench.mb_per_s"
	mBenchFailRatio     = "bench.fail_ratio"
	mBenchTracedOpsPerS = "bench.traced_ops_per_s"
	mBenchOpsPerS       = "bench.ops_per_s"
	mBenchOpP50         = "bench.op_p50_us"
	mBenchCPU           = "bench.cpu_us_per_op"
	mBenchSysCPU        = "bench.sys_cpu_us_per_op"
)

var perLayerSpecs = []MetricSpec{
	{Name: mVenusSelfUs, Unit: "us", Better: lower},
	{Name: mVenusHitRatio, Unit: "ratio", Better: higher},
	{Name: mVenusEvictions, Unit: "count", Better: lower},
	{Name: mVenusFetchRPCs, Unit: "count", Better: lower},
	{Name: mVenusStoreRPCs, Unit: "count", Better: lower},
	{Name: mVenusStatRPCs, Unit: "count", Better: lower},
	{Name: mVenusOtherRPCs, Unit: "count", Better: lower},
	{Name: mVenusRPCsPerOp, Unit: "count", Better: lower},
	{Name: mVenusBreaksPerSt, Unit: "count", Better: lower},
	{Name: mVenusBreakHandler, Unit: "us", Better: lower},
	{Name: mVenusColdP50, Unit: "us", Better: lower},
	{Name: mVenusColdP99, Unit: "us", Better: lower},
	{Name: mVenusWarmP50, Unit: "us", Better: lower},
	{Name: mVenusWarmP99, Unit: "us", Better: lower},
	{Name: mVenusStoreP50, Unit: "us", Better: lower},
	{Name: mVenusStoreP99, Unit: "us", Better: lower},
	{Name: mVenusStatP50, Unit: "us", Better: lower},
	{Name: mVenusStatP99, Unit: "us", Better: lower},

	{Name: mVirtueOverhead, Unit: "us", Better: lower},
	{Name: mUnixfsSmallOp, Unit: "us", Better: lower},
	{Name: mUnixfsWriteNsB, Unit: "ns/B", Better: lower},
	{Name: mUnixfsReadNsB, Unit: "ns/B", Better: lower},

	{Name: mRPCCallUsPerOp, Unit: "us", Better: lower},
	{Name: mRPCStatusP50, Unit: "us", Better: lower},
	{Name: mRPCFetchP50, Unit: "us", Better: lower},
	{Name: mRPCStoreP50, Unit: "us", Better: lower},
	{Name: mRPCNullRTT, Unit: "us", Better: lower},
	{Name: mRPCSelfPerCall, Unit: "us", Better: lower},
	{Name: mRPCSelfNsPerB, Unit: "ns/B", Better: lower},
	{Name: mRPCUnexplained, Unit: "us", Better: lower},

	{Name: mSecureSeal128, Unit: "us", Better: lower},
	{Name: mSecureOpen128, Unit: "us", Better: lower},
	{Name: mSecureSealNsB, Unit: "ns/B", Better: lower},
	{Name: mSecureOpenNsB, Unit: "ns/B", Better: lower},
	{Name: mSecureAllocs, Unit: "count", Better: lower},
	{Name: mSecureAllocB, Unit: "ratio", Better: lower},
	{Name: mSecureEst, Unit: "us", Better: lower},

	{Name: mWireFrame128, Unit: "us", Better: lower},
	{Name: mWireFrameNsB, Unit: "ns/B", Better: lower},
	{Name: mWireAllocs, Unit: "count", Better: lower},
	{Name: mWireMarshal, Unit: "us", Better: lower},
	{Name: mWireEst, Unit: "us", Better: lower},

	{Name: mNetWriteCalls, Unit: "count", Better: lower},
	{Name: mNetReadCalls, Unit: "count", Better: lower},
	{Name: mNetBytesPerUser, Unit: "ratio", Better: lower},
	{Name: mNetWriteUs, Unit: "us", Better: lower},

	{Name: mViceDispatchUs, Unit: "us", Better: lower},
	{Name: mViceFetchP50, Unit: "us", Better: lower},
	{Name: mViceStoreP50, Unit: "us", Better: lower},
	{Name: mViceStatusP50, Unit: "us", Better: lower},
	{Name: mViceSelfUs, Unit: "us", Better: lower},
	{Name: mViceBreakWait, Unit: "us", Better: lower},
	{Name: mViceCallsPerS, Unit: "1/s", Better: higher},
	{Name: mViceMaxConc, Unit: "count", Better: higher},

	{Name: mVolumeWriteNsB, Unit: "ns/B", Better: lower},
	{Name: mVolumeReadNsB, Unit: "ns/B", Better: lower},
	{Name: mVolumeSmallMut, Unit: "us", Better: lower},
	{Name: mVolumeSerialize, Unit: "ns/B", Better: lower},

	{Name: mStoreCommitP50, Unit: "us", Better: lower},
	{Name: mStoreSyncP50, Unit: "us", Better: lower},
	{Name: mStoreSyncP99, Unit: "us", Better: lower},
	{Name: mStoreCheckpoints, Unit: "count", Better: lower},
	{Name: mStoreCkptMs, Unit: "ms", Better: lower},
	{Name: mWalSelfUs, Unit: "us", Better: lower},
	{Name: mWalBytesPerMut, Unit: "B", Better: lower},
	{Name: mFSAppendsPerMut, Unit: "count", Better: lower},
	{Name: mFSFsyncsPerMut, Unit: "count", Better: lower},
	{Name: mFSAppendP50, Unit: "us", Better: lower},
	{Name: mFSFsyncP50, Unit: "us", Better: lower},
	{Name: mFSDiskPerUser, Unit: "ratio", Better: lower},

	{Name: mSimParkResume, Unit: "ns", Better: lower},
	{Name: mSimTimerEvent, Unit: "ns", Better: lower},
	{Name: mSimAllocsEvent, Unit: "count", Better: lower},
	{Name: mNetsimDeliver, Unit: "ns", Better: lower},
	{Name: mSimClientHours, Unit: "count", Better: higher},

	{Name: mBenchTraceOverhead, Unit: "%", Better: lower},
	{Name: mBenchExplained, Unit: "%", Better: higher},
	{Name: mBenchSampleEvery, Unit: "count", Better: lower},
	{Name: mBenchMBPerS, Unit: "MB/s", Better: higher},
	{Name: mBenchFailRatio, Unit: "ratio", Better: lower},
	{Name: mBenchTracedOpsPerS, Unit: "1/s", Better: higher},
	{Name: mBenchOpsPerS, Unit: "1/s", Better: higher},
	{Name: mBenchOpP50, Unit: "us", Better: lower},
	{Name: mBenchCPU, Unit: "us", Better: lower},
	{Name: mBenchSysCPU, Unit: "us", Better: lower},
}

// BenchmarkFile is the shape of BENCHMARK.json.
type BenchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []endToEndJSON `json:"end_to_end"`
	PerLayer   []perLayerJSON `json:"per_layer"`
}

// endToEndJSON always carries its bound, even a zero one; perLayerJSON never
// does. MetricSpec alone cannot say both with one omitempty tag.
type endToEndJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one run measures; the driver passes it back as
// --seconds.
const runSeconds = 10

func benchmarkFile() BenchmarkFile {
	bf := BenchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
	}
	for _, m := range endToEndSpecs {
		bf.EndToEnd = append(bf.EndToEnd, endToEndJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerSpecs {
		bf.PerLayer = append(bf.PerLayer, perLayerJSON{m.Name, m.Unit, m.Better})
	}
	return bf
}

// checkBenchmarkFile reports whether the BENCHMARK.json at path says what the
// tables above say. Every run from the repository root starts with it, so the
// file cannot drift from the program that emits the metrics.
func checkBenchmarkFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var onDisk BenchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if !reflect.DeepEqual(onDisk, benchmarkFile()) {
		return fmt.Errorf("%s differs from the tables in bench/spec.go; regenerate with: bash bench/run.sh -benchmark-json > BENCHMARK.json", path)
	}
	return nil
}

func unitOf(name string) string {
	for _, m := range comparedSpecs {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayerSpecs {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
