package harness

import (
	"os"
	"testing"
	"time"

	"itcfs"
)

// Scaled-down configurations keep the test suite fast; cmd/itcbench runs
// the full-size versions. The assertions here check the *shape* of each
// result, with generous bands.

func smallLoad(mode itcfs.Mode) LoadConfig {
	l := DefaultLoad(mode)
	l.UsersPer = 8
	l.Drive.UserFiles = 80
	l.Drive.SysFiles = 30
	return l
}

func TestE1CallMixShape(t *testing.T) {
	cfg := E1Config{Load: smallLoad(itcfs.Prototype), Warm: 10 * time.Minute, Measure: 30 * time.Minute}
	r, err := E1CallMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	if r.Metrics["validate"] < 0.45 {
		t.Errorf("validate share = %v, want dominant (paper 65%%)", r.Metrics["validate"])
	}
	if r.Metrics["status"] < 0.10 {
		t.Errorf("status share = %v, want substantial (paper 27%%)", r.Metrics["status"])
	}
	if r.Metrics["fetch"] > 0.15 {
		t.Errorf("fetch share = %v, want small (paper 4%%)", r.Metrics["fetch"])
	}
	if r.Metrics["store"] > 0.10 {
		t.Errorf("store share = %v, want small (paper 2%%)", r.Metrics["store"])
	}
	if r.Metrics["top4"] < 0.90 {
		t.Errorf("top-4 share = %v, want >90%% (paper 98%%)", r.Metrics["top4"])
	}
}

func TestE2UtilizationShape(t *testing.T) {
	cfg := DefaultE2()
	cfg.Load = smallLoad(itcfs.Prototype)
	cfg.Load.Clusters = 2
	cfg.Warm = 10 * time.Minute
	cfg.Measure = 30 * time.Minute
	r, err := E2Utilization(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	if r.Metrics["cpu_busiest"] <= r.Metrics["disk_busiest"] {
		t.Errorf("CPU (%v) should exceed disk (%v): the CPU is the bottleneck",
			r.Metrics["cpu_busiest"], r.Metrics["disk_busiest"])
	}
	if r.Metrics["cpu_peak"] < r.Metrics["cpu_busiest"] {
		t.Errorf("peak below average")
	}
}

func TestE3HitRatioShape(t *testing.T) {
	cfg := E3Config{Load: smallLoad(itcfs.Prototype), Warm: 15 * time.Minute, Measure: 30 * time.Minute}
	r, err := E3HitRatio(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	if r.Metrics["hit_ratio"] < 0.80 {
		t.Errorf("hit ratio = %v, paper reports >80%%", r.Metrics["hit_ratio"])
	}
}

func TestE4AndrewShape(t *testing.T) {
	cfg := DefaultE4()
	r, err := E4AndrewBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	if r.Metrics["local_s"] < 500 || r.Metrics["local_s"] > 1600 {
		t.Errorf("local = %v s, want ≈1000", r.Metrics["local_s"])
	}
	if r.Metrics["overhead"] < 0.4 || r.Metrics["overhead"] > 1.4 {
		t.Errorf("remote overhead = %v, want ≈0.8", r.Metrics["overhead"])
	}
}

func TestE4RevisedWarmCacheBenefit(t *testing.T) {
	cfg := DefaultE4()
	cfg.Mode = itcfs.Revised
	r, err := E4AndrewBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	// Revised mode must beat the prototype's remote overhead and gain
	// further from a warm cache (callbacks + space-limited LRU).
	if r.Metrics["warm_s"] >= r.Metrics["remote_s"] {
		t.Errorf("warm run (%v s) not faster than cold (%v s)",
			r.Metrics["warm_s"], r.Metrics["remote_s"])
	}
	if r.Metrics["overhead"] >= 1.0 {
		t.Errorf("revised remote overhead %v, want well under the prototype's ~1.0", r.Metrics["overhead"])
	}
}

func TestE5ScalabilityShape(t *testing.T) {
	cfg := DefaultE5()
	cfg.LoadWS = []int{0, 10, 30}
	cfg.Drive.UserFiles = 25
	cfg.Drive.SysFiles = 15
	r, err := E5Scalability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	if r.Metrics["ratio_10"] < 1.0 {
		t.Errorf("10 load WS sped the benchmark up: %v", r.Metrics["ratio_10"])
	}
	if r.Metrics["ratio_30"] <= r.Metrics["ratio_10"] {
		t.Errorf("contention not monotone: 30 WS %v <= 10 WS %v",
			r.Metrics["ratio_30"], r.Metrics["ratio_10"])
	}
}

func TestE6ValidationAblationShape(t *testing.T) {
	cfg := E6Config{UsersPer: 8, Warm: 10 * time.Minute, Measure: 30 * time.Minute}
	r, err := E6ValidationAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	if r.Metrics["call_reduction"] < 0.3 {
		t.Errorf("callbacks cut calls by only %v", r.Metrics["call_reduction"])
	}
	if r.Metrics["cpu_revised"] >= r.Metrics["cpu_proto"] {
		t.Errorf("revised CPU %v >= prototype %v", r.Metrics["cpu_revised"], r.Metrics["cpu_proto"])
	}
}

func TestE7PathnameAblationShape(t *testing.T) {
	r, err := E7PathnameAblation()
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	if r.Metrics["walked_revised"] != 0 {
		t.Errorf("revised mode walked %v components on the server", r.Metrics["walked_revised"])
	}
	if r.Metrics["walked_proto"] == 0 {
		t.Errorf("prototype walked nothing")
	}
	if r.Metrics["cpu_saving"] <= 0 {
		t.Errorf("no CPU saving from client-side traversal: %v", r.Metrics["cpu_saving"])
	}
}

func TestE8WholeFileVsPagedShape(t *testing.T) {
	r, err := E8WholeFileVsPaged()
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	if r.Metrics["whole_reread_ms"] >= r.Metrics["page_reread_ms"] {
		t.Errorf("cached re-read (%v ms) not faster than paged (%v ms)",
			r.Metrics["whole_reread_ms"], r.Metrics["page_reread_ms"])
	}
	if r.Metrics["whole_partial_ms"] <= r.Metrics["page_partial_ms"] {
		t.Errorf("partial read: whole-file (%v ms) should LOSE to paging (%v ms)",
			r.Metrics["whole_partial_ms"], r.Metrics["page_partial_ms"])
	}
}

func TestE9ReplicationShape(t *testing.T) {
	cfg := E9Config{Readers: 5, Binaries: 6, Reads: 12}
	r, err := E9ReadOnlyReplication(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	if r.Metrics["backbone_replicated"] >= r.Metrics["backbone_single"] {
		t.Errorf("replication did not cut backbone traffic: %v vs %v",
			r.Metrics["backbone_replicated"], r.Metrics["backbone_single"])
	}
	if r.Metrics["latency_replicated_ms"] > r.Metrics["latency_single_ms"] {
		t.Errorf("replication slowed reads: %v vs %v ms",
			r.Metrics["latency_replicated_ms"], r.Metrics["latency_single_ms"])
	}
	if r.Metrics["replica_bytes"] == 0 {
		t.Errorf("replica served nothing")
	}
}

func TestE11RebalanceShape(t *testing.T) {
	r, err := E11Rebalance(E11Config{Movers: 3, OpsEach: 60})
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	if r.Metrics["recommendations"] != 3 {
		t.Errorf("recommendations = %v, want 3 (one per misplaced volume)", r.Metrics["recommendations"])
	}
	if r.Metrics["frames_after"] >= r.Metrics["frames_before"] {
		t.Errorf("rebalancing did not cut backbone traffic: %v -> %v",
			r.Metrics["frames_before"], r.Metrics["frames_after"])
	}
	if r.Metrics["time_after_ms"] > r.Metrics["time_before_ms"] {
		t.Errorf("rebalancing slowed users down: %v -> %v ms",
			r.Metrics["time_before_ms"], r.Metrics["time_after_ms"])
	}
}

func TestE10RevocationShape(t *testing.T) {
	cfg := E10Config{Servers: 3, Groups: 4}
	r, err := E10Revocation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	if r.Metrics["neg_calls"] >= r.Metrics["db_calls"] {
		t.Errorf("negative rights took %v calls vs %v for the database path",
			r.Metrics["neg_calls"], r.Metrics["db_calls"])
	}
	if r.Metrics["neg_ms"] >= r.Metrics["db_ms"] {
		t.Errorf("negative rights slower: %v ms vs %v ms", r.Metrics["neg_ms"], r.Metrics["db_ms"])
	}
}
