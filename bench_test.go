// Benchmarks regenerating the paper's evaluation (§5.2), one per
// experiment. Each iteration runs the full experiment on the simulated
// cell; the reported custom metrics carry the paper-comparable numbers
// (shares, ratios, utilizations), while ns/op measures the cost of the
// reproduction itself.
//
//	go test -bench=. -benchmem
//
// cmd/itcbench prints the same experiments as tables, at larger scale.
package itcfs_test

import (
	"testing"
	"time"

	"itcfs"
	"itcfs/internal/harness"
)

func benchLoad(mode itcfs.Mode) harness.LoadConfig {
	l := harness.DefaultLoad(mode)
	l.UsersPer = 8
	l.Drive.UserFiles = 80
	l.Drive.SysFiles = 30
	return l
}

// BenchmarkE1CallMix regenerates the server call histogram (validate 65%,
// status 27%, fetch 4%, store 2%).
func BenchmarkE1CallMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.E1CallMix(harness.E1Config{
			Load: benchLoad(itcfs.Prototype), Warm: 10 * time.Minute, Measure: 30 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Metrics["validate"], "%validate")
		b.ReportMetric(100*r.Metrics["status"], "%status")
		b.ReportMetric(100*r.Metrics["fetch"], "%fetch")
		b.ReportMetric(100*r.Metrics["store"], "%store")
	}
}

// BenchmarkE2Utilization regenerates server CPU/disk utilization (CPU ≈40%
// busiest, disk ≈14%, CPU the bottleneck).
func BenchmarkE2Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultE2()
		cfg.Load = benchLoad(itcfs.Prototype)
		cfg.Load.Clusters = 2
		cfg.Warm = 10 * time.Minute
		cfg.Measure = 30 * time.Minute
		r, err := harness.E2Utilization(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Metrics["cpu_busiest"], "%cpu")
		b.ReportMetric(100*r.Metrics["disk_busiest"], "%disk")
		b.ReportMetric(100*r.Metrics["cpu_peak"], "%cpu-peak")
	}
}

// BenchmarkE3HitRatio regenerates the cache hit ratio (>80%).
func BenchmarkE3HitRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.E3HitRatio(harness.E3Config{
			Load: benchLoad(itcfs.Prototype), Warm: 15 * time.Minute, Measure: 30 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Metrics["hit_ratio"], "%hit")
	}
}

// BenchmarkE4AndrewLocalVsRemote regenerates the five-phase benchmark
// (≈1000 s local, ≈80% longer all-remote).
func BenchmarkE4AndrewLocalVsRemote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.E4AndrewBenchmark(harness.DefaultE4())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Metrics["local_s"], "local-s")
		b.ReportMetric(r.Metrics["remote_s"], "remote-s")
		b.ReportMetric(100*r.Metrics["overhead"], "%overhead")
	}
}

// BenchmarkE5Scalability regenerates the benchmark-vs-load sweep (≈20
// WS/server acceptable; contention grows past it).
func BenchmarkE5Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultE5()
		cfg.LoadWS = []int{0, 10, 20}
		cfg.Drive.UserFiles = 60
		cfg.Drive.SysFiles = 20
		r, err := harness.E5Scalability(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Metrics["ratio_10"], "x-at-10ws")
		b.ReportMetric(r.Metrics["ratio_20"], "x-at-20ws")
	}
}

// BenchmarkE6ValidationAblation regenerates the check-on-open vs callback
// comparison that motivated the revised design.
func BenchmarkE6ValidationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.E6ValidationAblation(harness.E6Config{
			UsersPer: 8, Warm: 10 * time.Minute, Measure: 30 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Metrics["call_reduction"], "%call-cut")
		b.ReportMetric(100*r.Metrics["cpu_proto"], "%cpu-proto")
		b.ReportMetric(100*r.Metrics["cpu_revised"], "%cpu-revised")
	}
}

// BenchmarkE7PathnameAblation regenerates the server-side vs client-side
// pathname traversal comparison.
func BenchmarkE7PathnameAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.E7PathnameAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Metrics["cpu_per_op_proto_ms"], "ms/op-proto")
		b.ReportMetric(r.Metrics["cpu_per_op_revised_ms"], "ms/op-revised")
		b.ReportMetric(100*r.Metrics["cpu_saving"], "%cpu-saved")
	}
}

// BenchmarkE8WholeFileVsPaged regenerates the transfer-granularity
// comparison (whole-file wins overhead and re-reads; paging wins partial
// reads of huge files).
func BenchmarkE8WholeFileVsPaged(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.E8WholeFileVsPaged()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Metrics["whole_seq_ms"], "whole-seq-ms")
		b.ReportMetric(r.Metrics["page_seq_ms"], "page-seq-ms")
		b.ReportMetric(r.Metrics["whole_reread_ms"], "whole-reread-ms")
		b.ReportMetric(r.Metrics["page_reread_ms"], "page-reread-ms")
	}
}

// BenchmarkE9ReadOnlyReplication regenerates the replication locality
// comparison.
func BenchmarkE9ReadOnlyReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.E9ReadOnlyReplication(harness.E9Config{Readers: 5, Binaries: 6, Reads: 12})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Metrics["backbone_single"], "bb-frames-single")
		b.ReportMetric(r.Metrics["backbone_replicated"], "bb-frames-repl")
	}
}

// BenchmarkE10Revocation regenerates the rapid-revocation comparison.
func BenchmarkE10Revocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.E10Revocation(harness.DefaultE10())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Metrics["neg_calls"], "calls-negrights")
		b.ReportMetric(r.Metrics["db_calls"], "calls-dbupdate")
	}
}

// BenchmarkE11Rebalance regenerates the monitoring-tools loop: detect
// misplaced volumes from server access patterns, apply the recommended
// moves, and measure the localized traffic (§3.6).
func BenchmarkE11Rebalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.E11Rebalance(harness.DefaultE11())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Metrics["frames_before"], "bb-frames-before")
		b.ReportMetric(r.Metrics["frames_after"], "bb-frames-after")
	}
}
