package fault_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"itcfs"
	"itcfs/internal/fault"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/workload"
)

// The chaos harness: run the Andrew workload over a cell whose network
// drops, duplicates, delays and corrupts frames from a seeded schedule,
// and whose only server crashes (losing its in-memory callback and lock
// tables) and restarts mid-run. After every fault heals, the stack must
// show: no acknowledged write lost, no stale read survives a broken
// callback, every frame accounted for, and all caches converged.

// chaosRetry is sized so a 30 s crash window sits well inside one call's
// total retry budget (6 attempts × 10 s timeouts + backoffs ≈ 110 s).
func chaosConfig(mode itcfs.Mode, seed int64) itcfs.CellConfig {
	return itcfs.CellConfig{
		Mode:     mode,
		Clusters: 1,
		// Free server CPU/disk: chaos stresses the transport and the
		// recovery paths, not the 1985 hardware model.
		Costs:       &itcfs.CostConfig{},
		CallTimeout: 10 * time.Second,
		Retry: rpc.RetryPolicy{
			Attempts:   6,
			Backoff:    2 * time.Second,
			MaxBackoff: 20 * time.Second,
			Jitter:     0.3,
			Seed:       seed,
		},
		CallbackTTL:      2 * time.Minute,
		ReconnectRetries: 3,
	}
}

func chaosInjector(seed int64) *fault.Injector {
	return fault.New(fault.Config{
		Seed:        seed,
		DropProb:    0.05,
		DupProb:     0.05,
		CorruptProb: 0.03,
		DelayProb:   0.10,
		MaxDelay:    2 * time.Second,
	})
}

// andrewChaos is small enough to finish quickly yet wide enough that every
// fault mode fires during the copy/scan/compile phases.
func andrewChaos(seed int64) workload.AndrewConfig {
	return workload.AndrewConfig{Seed: seed, Files: 10, Dirs: 2, MeanFileBytes: 512}
}

// runChaos executes one full seeded chaos run and returns the injector's
// fault schedule plus the invariant report. Any invariant violation fails t.
func runChaos(t *testing.T, mode itcfs.Mode, seed int64) (schedule, invariants string) {
	t.Helper()
	cell := itcfs.NewCell(chaosConfig(mode, seed))

	// Provision on a healthy network so setup noise never enters the
	// fault schedule.
	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		err = admin.NewUser(p, "satya", "pw", 0)
	})
	if err != nil {
		t.Fatalf("provision: %v", err)
	}
	ws1 := cell.AddWorkstation(0, "ws-a")
	ws2 := cell.AddWorkstation(0, "ws-b")
	wcfg := andrewChaos(seed)
	var srcFiles []string
	cell.Run(func(p *sim.Proc) {
		if err = ws1.Login(p, "satya", "pw"); err != nil {
			return
		}
		if err = ws2.Login(p, "satya", "pw"); err != nil {
			return
		}
		srcFiles, err = workload.GenerateTree(p, ws1.FS, "/src", wcfg)
	})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}

	inj := chaosInjector(seed)
	cell.Net.SetFaultInjector(inj)
	inj.SetActive(true)

	// Two crash/restart cycles while the Andrew workload runs: each
	// 30-second outage wipes the server's callback and lock tables but
	// stays inside the clients' retry budget.
	cell.Kernel.Spawn("chaos-crashes", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			p.Sleep(45 * time.Second)
			cell.CrashServer(0)
			p.Sleep(30 * time.Second)
			cell.RestartServer(0)
		}
	})
	const dst = "/vice/usr/satya/andrew"
	var runErr error
	cell.Run(func(p *sim.Proc) {
		_, runErr = workload.RunAndrew(p, ws1.FS, "/src", dst, wcfg)
	})
	// Invariant: with retries the workload completes despite drops,
	// duplicates, corruption, delays and two full server outages.
	if runErr != nil {
		t.Fatalf("andrew workload under faults: %v", runErr)
	}

	// Heal: stop injecting and let every delayed frame drain (cell.Run
	// above returns only when the event queue is empty, so it already has).
	inj.SetActive(false)

	// Invariant: no lost acknowledged writes. RunAndrew returned success,
	// so every store it issued was acknowledged; after the heal each copied
	// file must read back byte-identical to its source.
	dstOf := func(src string) string { return dst + strings.TrimPrefix(src, "/src") }
	cell.Run(func(p *sim.Proc) {
		for _, src := range srcFiles {
			want, rerr := ws1.FS.ReadFile(p, src)
			if rerr != nil {
				err = fmt.Errorf("read source %s: %w", src, rerr)
				return
			}
			got, rerr := ws1.FS.ReadFile(p, dstOf(src))
			if rerr != nil {
				err = fmt.Errorf("read copy %s: %w", dstOf(src), rerr)
				return
			}
			if string(got) != string(want) {
				err = fmt.Errorf("acknowledged write lost: %s differs from %s", dstOf(src), src)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Invariant: no stale read after a callback break is lost to a crash.
	// ws2 caches a file and earns a callback promise; the server crashes
	// (forgetting the promise), restarts, and ws1 updates the file — so no
	// break ever reaches ws2. Once ws2's trust in the promise expires it
	// must revalidate and see the new bytes.
	probe := dstOf(srcFiles[0])
	cell.Run(func(p *sim.Proc) {
		_, err = ws2.FS.ReadFile(p, probe)
	})
	if err != nil {
		t.Fatalf("probe read: %v", err)
	}
	cell.CrashServer(0)
	cell.Kernel.RunUntil(cell.Now().Add(5 * time.Second))
	cell.RestartServer(0)
	cell.Kernel.RunUntil(cell.Now().Add(5 * time.Second))
	updated := []byte("updated after the callback table died")
	cell.Run(func(p *sim.Proc) {
		err = ws1.FS.WriteFile(p, probe, updated)
	})
	if err != nil {
		t.Fatalf("update after restart: %v", err)
	}
	cell.Kernel.RunUntil(cell.Now().Add(3 * time.Minute)) // outlive CallbackTTL
	var got []byte
	cell.Run(func(p *sim.Proc) {
		got, err = ws2.FS.ReadFile(p, probe)
	})
	if err != nil {
		t.Fatalf("re-read after heal: %v", err)
	}
	if string(got) != string(updated) {
		t.Fatalf("stale read after heal: got %q, want %q", got, updated)
	}

	// Invariant: cache convergence. Every workstation — the writer, the
	// revalidated reader, and a cold one — sees identical bytes.
	ws3 := cell.AddWorkstation(0, "ws-cold")
	sample := append([]string{probe}, dstOf(srcFiles[len(srcFiles)-1]))
	cell.Run(func(p *sim.Proc) {
		if err = ws3.Login(p, "satya", "pw"); err != nil {
			return
		}
		for _, path := range sample {
			var a, b, c []byte
			if a, err = ws1.FS.ReadFile(p, path); err != nil {
				return
			}
			if b, err = ws2.FS.ReadFile(p, path); err != nil {
				return
			}
			if c, err = ws3.FS.ReadFile(p, path); err != nil {
				return
			}
			if string(a) != string(b) || string(b) != string(c) {
				err = fmt.Errorf("caches diverge on %s: %q / %q / %q", path, a, b, c)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Invariant: frame conservation. Every frame offered to the network is
	// delivered or accounted to exactly one loss bucket.
	net := cell.Net
	if net.Offered() != net.Delivered()+net.Drops()+net.FaultDrops()+net.DownDrops() {
		t.Fatalf("frames leaked: offered=%d delivered=%d partition=%d fault=%d down=%d",
			net.Offered(), net.Delivered(), net.Drops(), net.FaultDrops(), net.DownDrops())
	}

	// Invariant: the run actually exercised the fault modes it claims.
	if net.FaultDrops() == 0 || net.FaultDups() == 0 || net.FaultCorrupts() == 0 || net.FaultDelays() == 0 {
		t.Fatalf("fault modes missed: drops=%d dups=%d corrupts=%d delays=%d",
			net.FaultDrops(), net.FaultDups(), net.FaultCorrupts(), net.FaultDelays())
	}
	if cell.Servers[0].Vice.Restarts() < 3 {
		t.Fatalf("server restarts = %d, want >= 3", cell.Servers[0].Vice.Restarts())
	}
	var retries, dupSuppressed int64
	retries += cell.Servers[0].Endpoint.Retries()
	dupSuppressed += cell.Servers[0].Endpoint.DupSuppressed()
	for _, ws := range cell.Workstations() {
		retries += ws.Endpoint.Retries()
		dupSuppressed += ws.Endpoint.DupSuppressed()
	}
	if retries == 0 {
		t.Fatal("no retransmissions despite dropped frames")
	}
	if dupSuppressed == 0 {
		t.Fatal("no duplicate calls suppressed despite duplicated frames")
	}

	var wsStats []string
	for _, ws := range cell.Workstations() {
		s := ws.Venus.Stats()
		wsStats = append(wsStats, fmt.Sprintf(
			"  %s: opens=%d hits=%d misses=%d fetches=%d stores=%d degraded=%d reconnects=%d",
			ws.Name, s.Opens, s.Hits, s.Misses, s.Fetches, s.Stores, s.DegradedReads, s.Reconnects))
	}
	sort.Strings(wsStats)
	invariants = fmt.Sprintf(
		"chaos invariants (mode=%v seed=%d)\n"+
			"frames: offered=%d delivered=%d partition=%d fault=%d down=%d dup=%d corrupt=%d delay=%d\n"+
			"rpc: retries=%d dup-suppressed=%d server-restarts=%d\n%s\n",
		cell.Mode, seed,
		net.Offered(), net.Delivered(), net.Drops(), net.FaultDrops(), net.DownDrops(),
		net.FaultDups(), net.FaultCorrupts(), net.FaultDelays(),
		retries, dupSuppressed, cell.Servers[0].Vice.Restarts(),
		strings.Join(wsStats, "\n"))
	return inj.Report(), invariants
}

// TestChaosAndrewWorkload drives the full harness in both implementation
// modes: the prototype (check-on-open) and the revised design (callbacks).
func TestChaosAndrewWorkload(t *testing.T) {
	for _, mode := range []itcfs.Mode{itcfs.Prototype, itcfs.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			schedule, invariants := runChaos(t, mode, 1985)
			if testing.Verbose() {
				t.Logf("%s\n%s", schedule, invariants)
			}
		})
	}
}

// TestChaosDeterministic replays the same seed through two fresh cells and
// requires a byte-identical fault schedule and invariant report — the
// property that makes chaos failures debuggable.
func TestChaosDeterministic(t *testing.T) {
	s1, i1 := runChaos(t, itcfs.Revised, 7)
	s2, i2 := runChaos(t, itcfs.Revised, 7)
	if s1 != s2 {
		t.Errorf("fault schedule not reproducible:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", s1, s2)
	}
	if i1 != i2 {
		t.Errorf("invariant report not reproducible:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", i1, i2)
	}
}

// TestChaosSeedChangesSchedule guards against the injector ignoring its
// seed: different seeds must produce different schedules.
func TestChaosSeedChangesSchedule(t *testing.T) {
	s1, _ := runChaos(t, itcfs.Revised, 7)
	s2, _ := runChaos(t, itcfs.Revised, 8)
	if s1 == s2 {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestChaosInvariantsAcrossSeeds holds both modes to every invariant above
// under twenty more fault schedules than seed 1985's: other frames dropped,
// duplicated, corrupted and delayed, at other moments of the copy, scan and
// compile phases and of the two outages.
func TestChaosInvariantsAcrossSeeds(t *testing.T) {
	for _, mode := range []itcfs.Mode{itcfs.Prototype, itcfs.Revised} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", mode, seed), func(t *testing.T) { runChaos(t, mode, seed) })
		}
	}
}
