package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"itcfs"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/workload"
)

// E16Config sizes the replication-availability experiment.
type E16Config struct {
	Seed int64
	// Clusters is the number of cluster servers; server0 is the custodian
	// of the system-binary volume and the server that dies mid-run.
	Clusters int
	// ReadersPerCluster stations per cluster read the released binaries in
	// a round-robin loop. Cluster-0 readers prefer the (doomed) custodian
	// and must fail over; other clusters' readers prefer their own local
	// replica and should never notice the crash.
	ReadersPerCluster int
	SysFiles          int           // released system binaries
	Think             time.Duration // reader pause between binary reads
	// CacheBytes keeps the Venus caches small enough that the binaries
	// cycle out: post-crash reads are real fetches, not cache hits, or the
	// unreplicated leg would ride out the crash on cached copies.
	CacheBytes int64
	// AndrewStart delays the Andrew run so its Copy phase — the window
	// where it reads every released source file — brackets the kill.
	AndrewStart time.Duration
	KillAfter   time.Duration // custodian crash, from load start
	Window      time.Duration // reader loop duration
	// Fault-tolerance knobs passed to the cell (failure is detected by
	// timeout, so the timeout must be short relative to Window).
	CallTimeout      time.Duration
	ReconnectRetries int
	Andrew           workload.AndrewConfig
	FlightEvents     int
}

// DefaultE16 returns the standard configuration: three cluster servers, the
// binaries released to the two non-custodians, and the custodian killed
// while readers in every cluster and an Andrew run are consuming the
// released tree.
func DefaultE16() E16Config {
	andrew := workload.DefaultAndrew()
	andrew.Files = 24
	andrew.Dirs = 3
	andrew.MeanFileBytes = 4 << 10
	// A fast compiler: E16 measures availability, not benchmark time.
	andrew.CompilePerKB = 200 * time.Millisecond
	andrew.CompilePerFile = 250 * time.Millisecond
	return E16Config{
		Seed:              1,
		Clusters:          3,
		ReadersPerCluster: 2,
		SysFiles:          24,
		Think:             2 * time.Second,
		CacheBytes:        96 << 10,
		AndrewStart:       30 * time.Second,
		KillAfter:         45 * time.Second,
		Window:            6 * time.Minute,
		CallTimeout:       10 * time.Second,
		ReconnectRetries:  1,
		Andrew:            andrew,
		FlightEvents:      512,
	}
}

// E16Result is the experiment outcome plus the two cells, kept alive so
// tests can inspect metrics and flight recorders.
type E16Result struct {
	Report       *Report
	Replicated   *itcfs.Cell
	Unreplicated *itcfs.Cell
}

// e16Leg is one cell's worth of measurements.
type e16Leg struct {
	cell            *itcfs.Cell
	attempted       int64
	failed          int64
	localAttempted  int64 // readers homed on surviving replicas
	localFailed     int64
	failovers       int64
	releaseInstalls int64
	replicasEqual   int // replicas found byte-equal to their clone
	andrewErr       error
	andrewTotal     time.Duration
}

// E16Replication measures what read-only replication buys when the
// custodian dies (§3.2: "frequently read but rarely modified" subtrees are
// replicated read-only at many sites; §5.3 names availability as the
// motivation). Two identical cells run the same seeded load — readers in
// every cluster looping over the released system binaries, plus an Andrew
// run whose source tree lives in the released volume — and in both, the
// custodian of the binaries is killed mid-run. The only difference: one
// cell released the volume to replicas on every other cluster server first.
// The replicated leg must show zero failed reads (cluster-0 readers fail
// over to replicas; the others were already reading their local replica),
// while the unreplicated leg shows the outage, and every replica must hold
// its clone's image byte for byte.
func E16Replication(cfg E16Config) (*E16Result, error) {
	if cfg.Clusters < 2 {
		return nil, fmt.Errorf("E16: need at least 2 clusters, got %d", cfg.Clusters)
	}
	rep, err := e16RunLeg(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("E16 replicated leg: %w", err)
	}
	unrep, err := e16RunLeg(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("E16 unreplicated leg: %w", err)
	}

	// The experiment's claims, checked here so a regression fails loudly
	// rather than printing a subtly wrong table.
	if rep.failed != 0 {
		return nil, fmt.Errorf("E16: replicated leg had %d failed reads (want 0)", rep.failed)
	}
	if rep.andrewErr != nil {
		return nil, fmt.Errorf("E16: replicated leg Andrew run failed: %w", rep.andrewErr)
	}
	if unrep.failed == 0 {
		return nil, fmt.Errorf("E16: unreplicated leg had no failed reads; the crash did not bite")
	}
	if want := cfg.Clusters - 1; rep.replicasEqual != want {
		return nil, fmt.Errorf("E16: compared %d replicas with their clone, want %d", rep.replicasEqual, want)
	}
	andrewCell := func(key string, l *e16Leg) entry {
		if l.andrewErr != nil {
			return entry{fmt.Sprintf("failed: %v", l.andrewErr), key, 0}
		}
		return entry{fmt.Sprintf("completed (%s)", secs(l.andrewTotal)), key, 1}
	}
	r := newReport("E16", "Read-only replication: release, failover",
		"replicating read-only subtrees \"at many sites\" keeps them available (§3.2, §5.3)",
		"metric", "replicated", "unreplicated")
	r.row("reads attempted", count("attempted_replicated", rep.attempted), count("attempted_unreplicated", unrep.attempted))
	r.row("reads failed", count("failed_replicated", rep.failed), count("failed_unreplicated", unrep.failed))
	r.addRow("… by replica-local readers", fmt.Sprintf("%d of %d", rep.localFailed, rep.localAttempted),
		fmt.Sprintf("%d of %d", unrep.localFailed, unrep.localAttempted))
	r.row("Venus failovers", count("failovers_replicated", rep.failovers), count("", unrep.failovers))
	r.row("release installs pushed", count("release_installs", rep.releaseInstalls), count("", unrep.releaseInstalls))
	r.row("Andrew run over released tree", andrewCell("andrew_ok_replicated", rep), andrewCell("andrew_ok_unreplicated", unrep))
	r.row("flight events recorded", count("", rep.cell.Flight.Total()), count("", unrep.cell.Flight.Total()))
	r.Metrics["replicas_equal"] = float64(rep.replicasEqual)

	return &E16Result{
		Report:       r,
		Replicated:   rep.cell,
		Unreplicated: unrep.cell,
	}, nil
}

// e16RunLeg provisions one cell, releases the binaries (with or without
// replicas), applies the reader + Andrew load, kills the custodian on
// schedule, and collects the counters.
func e16RunLeg(cfg E16Config, replicate bool) (*e16Leg, error) {
	metrics := trace.NewRegistry()
	cell := itcfs.NewCell(itcfs.CellConfig{
		Mode:             itcfs.Revised,
		Clusters:         cfg.Clusters,
		CacheBytes:       cfg.CacheBytes,
		CallTimeout:      cfg.CallTimeout,
		ReconnectRetries: cfg.ReconnectRetries,
		Metrics:          metrics,
		FlightEvents:     cfg.FlightEvents,
	})
	leg := &e16Leg{cell: cell}

	// Provision: the binaries and the Andrew source tree in one volume on
	// server0; the Andrew user's home on server1, where it survives.
	drive := workload.DefaultConfig(cfg.Seed)
	drive.SysFiles = cfg.SysFiles
	srcRW := "/vice" + drive.SysRoot + "/src"
	var sysVol uint32
	err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) (err error) {
		if sysVol, err = sysVolume(p, admin, drive.SysRoot); err != nil {
			return err
		}
		return newUsers(p, admin, cell.Servers[1].Vice.Name(), "andrew")
	})
	if err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	_, err = station(cell, 0, "op-console", "operator", func(p *sim.Proc, ws *itcfs.Workstation) error {
		r := rand.New(rand.NewSource(cfg.Seed))
		if err := workload.PopulateSystem(p, ws.FS, drive, r); err != nil {
			return err
		}
		_, err := workload.GenerateTree(p, ws.FS, srcRW, cfg.Andrew)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}

	// Release. The read-only clone mounts beside the read-write volume; in
	// the replicated leg it is also pushed to every other cluster server.
	var onto []*itcfs.Server
	if replicate {
		onto = cell.Servers[1:]
	}
	var roRoot string
	err = asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) (err error) {
		roRoot, err = release(p, admin, sysVol, drive.SysRoot, onto)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("release: %w", err)
	}
	leg.releaseInstalls = metrics.Counter(trace.MetricReplicaReleaseInstalls).Value()
	if leg.replicasEqual, err = equalReplicas(cell, roRoot, onto); err != nil {
		return nil, err
	}

	// Stations: readers in every cluster (logged in as the operator — the
	// released tree is world-readable) plus the Andrew runner next to its
	// home server in cluster 1.
	type reader struct {
		ws    *itcfs.Workstation
		local bool // homed on a server that carries a replica
	}
	var readers []reader
	for c := 0; c < cfg.Clusters; c++ {
		for i := 0; i < cfg.ReadersPerCluster; i++ {
			ws, err := station(cell, c, fmt.Sprintf("read%d-%d", c, i), "operator", nil)
			if err != nil {
				return nil, err
			}
			readers = append(readers, reader{ws: ws, local: replicate && c > 0})
		}
	}
	andrewWS, err := station(cell, 1, "andrew-ws", "andrew", nil)
	if err != nil {
		return nil, err
	}
	// Warm the name-space spine: resolve the build area once while every
	// server is up, caching the upper-level directories under callback. The
	// root volume's upper levels are exactly what §3.2 prescribes
	// replicating "at many sites"; this cell leaves them on server0, so a
	// workstation that never resolved /usr before the crash would lose it
	// with the custodian — a real exposure, but not the one E16 measures.
	err = cell.Do(func(p *sim.Proc) error {
		_, err := andrewWS.FS.ReadDir(p, "/vice/usr/andrew")
		return err
	})
	if err != nil {
		return nil, err
	}

	// Load. Staggers are drawn deterministically from the seed in a fixed
	// order so the stations never march in lockstep.
	rng := rand.New(rand.NewSource(cfg.Seed + 16))
	start := cell.Now()
	until := start.Add(cfg.Window)
	for _, st := range readers {
		stagger := time.Duration(rng.Int63n(int64(cfg.Think)))
		cell.Kernel.Spawn("read-"+st.ws.Name, func(p *sim.Proc) {
			p.Sleep(stagger)
			for f := 0; p.Now() < until; f++ {
				path := fmt.Sprintf("/vice%s/bin%03d", roRoot, f%cfg.SysFiles)
				leg.attempted++
				if st.local {
					leg.localAttempted++
				}
				if _, rerr := st.ws.FS.ReadFile(p, path); rerr != nil {
					leg.failed++
					if st.local {
						leg.localFailed++
					}
				}
				p.Sleep(cfg.Think)
			}
		})
	}
	cell.Kernel.Spawn("andrew", func(p *sim.Proc) {
		p.Sleep(cfg.AndrewStart)
		pt, aerr := workload.RunAndrew(p, andrewWS.FS, "/vice"+roRoot+"/src", "/vice/usr/andrew/build", cfg.Andrew)
		leg.andrewErr = aerr
		leg.andrewTotal = pt.Total()
	})
	cell.Kernel.Spawn("kill-custodian", func(p *sim.Proc) {
		p.Sleep(cfg.KillAfter)
		cell.CrashServer(0)
	})
	cell.Kernel.Run()

	for _, st := range readers {
		leg.failovers += st.ws.Venus.Stats().Failovers
	}
	leg.failovers += andrewWS.Venus.Stats().Failovers
	return leg, nil
}

// equalReplicas compares the image of the read-only clone mounted at roRoot
// on server0 with the same volume on every server in onto, and returns how
// many it compared. Any replica that is missing or differs is an error: a
// replica is a copy of its clone.
func equalReplicas(cell *itcfs.Cell, roRoot string, onto []*itcfs.Server) (int, error) {
	custodian := cell.Servers[0].Vice
	le, _ := custodian.Loc().Resolve(roRoot)
	clone, ok := custodian.Volume(le.Volume)
	if !ok || le.Prefix != roRoot {
		return 0, fmt.Errorf("no clone mounted at %s on %s", roRoot, custodian.Name())
	}
	want := clone.Serialize()
	for _, s := range onto {
		if rep, ok := s.Vice.Volume(le.Volume); !ok || !bytes.Equal(rep.Serialize(), want) {
			return 0, fmt.Errorf("replica of volume %d on %s is missing or differs from its clone", le.Volume, s.Vice.Name())
		}
	}
	return len(onto), nil
}
