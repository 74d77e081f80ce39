package harness

import (
	"fmt"
	"time"

	"itcfs"
	"itcfs/internal/baseline"
	"itcfs/internal/netsim"
	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
)

// E6Config sizes the validation-policy ablation.
type E6Config struct {
	UsersPer int
	Warm     time.Duration
	Measure  time.Duration
}

// DefaultE6 returns the standard configuration.
func DefaultE6() E6Config {
	return E6Config{UsersPer: 20, Warm: 30 * time.Minute, Measure: time.Hour}
}

// E6ValidationAblation compares the prototype's check-on-open validation
// against the revised callback scheme under identical load. The paper
// concluded from the prototype's 65%-validation call mix that "major
// performance improvement is possible if cache validity checks are
// minimized" (§5.2) — this experiment quantifies that conclusion.
func E6ValidationAblation(cfg E6Config) (*Report, error) {
	r := newReport("E6", "Check-on-open vs callback invalidation (identical load)",
		"prototype validation traffic dominates; callbacks eliminate it (§3.2, §5.2)",
		"metric", "check-on-open", "callback")
	var calls, promises, breaks [2]int64
	var valid, cpu [2]float64
	for i, mode := range []itcfs.Mode{itcfs.Prototype, itcfs.Revised} {
		load := DefaultLoad(mode)
		load.UsersPer = cfg.UsersPer
		lc, err := buildLoadedCell(load)
		if err != nil {
			return nil, err
		}
		if err := lc.drive(load, cfg.Warm, cfg.Measure, nil); err != nil {
			return nil, err
		}
		var mix map[string]float64
		mix, calls[i] = lc.callMix()
		valid[i] = mix["TestValid (cache validity)"]
		cpu[i], _ = lc.windowUtil(lc.cell.Servers[0])
		promises[i], breaks[i] = lc.cell.Servers[0].Vice.Callbacks().Stats()
	}
	r.row("total server calls", count("calls_proto", calls[0]), count("calls_revised", calls[1]))
	r.row("validation share", share("", valid[0]), share("", valid[1]))
	r.row("server CPU", share("cpu_proto", cpu[0]), share("cpu_revised", cpu[1]))
	r.row("callback promises", text("0"), count("", promises[1]))
	r.row("callback breaks", text("0"), count("", breaks[1]))
	r.Metrics["call_reduction"] = 1 - float64(calls[1])/float64(calls[0])
	return r, nil
}

// E7Config sizes the pathname-traversal ablation.
type E7Config struct {
	Users   int
	Depth   int // directory depth of the accessed files
	OpsEach int
}

// DefaultE7 returns the standard configuration.
func DefaultE7() E7Config {
	return E7Config{Users: 10, Depth: 6, OpsEach: 150}
}

// E7PathnameAblation measures server-side pathname traversal (prototype)
// against client-side traversal with FIDs (revised): "the offloading of
// pathname traversal from servers to clients will reduce the utilization of
// the server CPU and hence improve the scalability of our design" (§5.3).
func E7PathnameAblation(cfg E7Config) (*Report, error) {
	r := newReport("E7", "Server-side vs client-side pathname traversal",
		"moving traversal to workstations cuts server CPU per operation (§5.3)",
		"metric", "prototype (server walks)", "revised (FIDs)")
	var walked, calls [2]int64
	var cpu, perOpCPU [2]time.Duration
	for i, mode := range []itcfs.Mode{itcfs.Prototype, itcfs.Revised} {
		cell := itcfs.NewCell(itcfs.CellConfig{Mode: mode, Clusters: 1})
		if err := provision(cell, "deep"); err != nil {
			return nil, err
		}
		// Build a deep directory chain and a file at the bottom.
		dir := "/vice/usr/deep"
		_, err := station(cell, 0, "setup", "deep", func(p *sim.Proc, ws *itcfs.Workstation) error {
			for d := 0; d < cfg.Depth; d++ {
				dir = fmt.Sprintf("%s/d%d", dir, d)
				if err := ws.FS.Mkdir(p, dir, 0o755); err != nil {
					return err
				}
			}
			return ws.FS.WriteFile(p, dir+"/leaf", []byte("deep data"))
		})
		if err != nil {
			return nil, err
		}
		srv := cell.Servers[0]
		cpu0 := srv.CPU.BusyTime()
		_, _, walked0 := srv.Vice.TrafficStats()
		calls0 := srv.Endpoint.CallsTotal()
		for u := 0; u < cfg.Users; u++ {
			_, err := station(cell, 0, fmt.Sprintf("deep-ws%d", u), "deep", func(p *sim.Proc, ws *itcfs.Workstation) error {
				for op := 0; op < cfg.OpsEach; op++ {
					if _, err := ws.FS.Stat(p, dir+"/leaf"); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		_, _, walked1 := srv.Vice.TrafficStats()
		walked[i] = walked1 - walked0
		calls[i] = srv.Endpoint.CallsTotal() - calls0
		cpu[i] = srv.CPU.BusyTime() - cpu0
		perOpCPU[i] = cpu[i] / time.Duration(cfg.Users*cfg.OpsEach)
	}
	r.row("components walked on server", count("walked_proto", walked[0]), count("walked_revised", walked[1]))
	r.row("server CPU total", millis("", cpu[0]), millis("", cpu[1]))
	r.row("server CPU per stat", rounded("cpu_per_op_proto_ms", perOpCPU[0], time.Microsecond),
		rounded("cpu_per_op_revised_ms", perOpCPU[1], time.Microsecond))
	r.row("server calls", count("", calls[0]), count("", calls[1]))
	r.Metrics["cpu_saving"] = 1 - float64(cpu[1])/float64(cpu[0])
	return r, nil
}

// E8Config sizes the transfer-granularity ablation.
type E8Config struct {
	FileKB   int // size of the sequentially-read file
	Rereads  int // how many times the same file is re-read
	BigMB    int // size of the partially-read file
	PartialB int // bytes read out of the big file
}

// DefaultE8 returns the standard configuration.
func DefaultE8() E8Config {
	return E8Config{FileKB: 128, Rereads: 5, BigMB: 4, PartialB: 256}
}

// E8WholeFileVsPaged compares whole-file transfer with caching against
// page-at-a-time remote access: "the total network protocol overhead in
// transmitting a file is lower when it is sent en masse" and custodians are
// contacted only on opens and closes (§3.2). The partial-access row shows
// the honest flip side that bounds the design to files of a few megabytes.
func E8WholeFileVsPaged(cfg E8Config) (*Report, error) {
	// Whole-file side: a standard cell.
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Revised, Clusters: 1})
	if err := provision(cell, "u"); err != nil {
		return nil, err
	}
	seq := make([]byte, cfg.FileKB<<10)
	big := make([]byte, cfg.BigMB<<20)
	_, err := station(cell, 0, "ws", "u", func(p *sim.Proc, ws *itcfs.Workstation) error {
		if err := ws.FS.WriteFile(p, "/vice/usr/u/seq", seq); err != nil {
			return err
		}
		return ws.FS.WriteFile(p, "/vice/usr/u/big", big)
	})
	if err != nil {
		return nil, err
	}
	// Fresh workstation: cold cache for the measured reads.
	var wholeSeq, wholeRe, wholePartial time.Duration
	var wholeSeqBytes int64
	_, err = station(cell, 0, "cold", "u", func(p *sim.Proc, cold *itcfs.Workstation) error {
		t0 := p.Now()
		lan0 := cell.Clusters[0].LAN.Bytes()
		if _, err := cold.FS.ReadFile(p, "/vice/usr/u/seq"); err != nil {
			return err
		}
		wholeSeqBytes = cell.Clusters[0].LAN.Bytes() - lan0
		wholeSeq = p.Now().Sub(t0)
		t0 = p.Now()
		for i := 0; i < cfg.Rereads; i++ {
			if _, err := cold.FS.ReadFile(p, "/vice/usr/u/seq"); err != nil {
				return err
			}
		}
		wholeRe = p.Now().Sub(t0) / time.Duration(cfg.Rereads)
		// Partial access: whole-file caching must fetch all of it.
		t0 = p.Now()
		f, err := cold.FS.Open(p, "/vice/usr/u/big", itcfs.FlagRead)
		if err != nil {
			return err
		}
		buf := make([]byte, cfg.PartialB)
		if _, err := f.ReadAt(buf, 1<<20); err != nil {
			return err
		}
		f.Close(p)
		wholePartial = p.Now().Sub(t0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	wsCalls := cell.Servers[0].Endpoint.CallsTotal()

	// Page side: a dedicated page server on an identical network.
	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	sn := net.AddNode("pgserver", cl)
	cn := net.AddNode("client", cl)
	psrv := baseline.NewServer(unixfs.New(nil))
	key := secure.DeriveKey("u", "pw")
	rpc.NewEndpoint(net, sn, rpc.EndpointConfig{
		Keys:   func(user string) (secure.Key, bool) { return key, user == "u" },
		Server: psrv.Dispatcher(),
		Bill:   itcfs.DefaultCosts().PageBill(sim.NewResource(k, "pg-cpu"), sim.NewResource(k, "pg-disk")),
	})
	cep := rpc.NewEndpoint(net, cn, rpc.EndpointConfig{})
	if err := psrv.FS().WriteFile("/seq", seq, 0o644, ""); err != nil {
		return nil, err
	}
	if err := psrv.FS().WriteFile("/big", big, 0o644, ""); err != nil {
		return nil, err
	}
	var pageSeq, pageRe, pagePartial time.Duration
	var pageSeqBytes int64
	var pageErr error
	k.Spawn("client", func(p *sim.Proc) {
		conn, derr := cep.Dial(p, sn.ID, "u", key)
		if derr != nil {
			pageErr = derr
			return
		}
		c := baseline.NewClient(conn)
		t0 := p.Now()
		lan0 := cl.LAN.Bytes()
		if _, pageErr = c.ReadFile(p, "/seq"); pageErr != nil {
			return
		}
		pageSeqBytes = cl.LAN.Bytes() - lan0
		pageSeq = p.Now().Sub(t0)
		t0 = p.Now()
		for i := 0; i < cfg.Rereads; i++ {
			if _, pageErr = c.ReadFile(p, "/seq"); pageErr != nil {
				return
			}
		}
		pageRe = p.Now().Sub(t0) / time.Duration(cfg.Rereads)
		t0 = p.Now()
		f, oerr := c.Open(p, "/big", false)
		if oerr != nil {
			pageErr = oerr
			return
		}
		buf := make([]byte, cfg.PartialB)
		if _, pageErr = f.ReadAt(p, buf, 1<<20); pageErr != nil {
			return
		}
		f.Close(p)
		pagePartial = p.Now().Sub(t0)
	})
	k.Run()
	if pageErr != nil {
		return nil, pageErr
	}
	_, pgReads, _ := psrv.OpCounts()

	r := newReport("E8", "Whole-file transfer + caching vs page-at-a-time access",
		"whole-file wins on protocol overhead and repeat access; paging only wins partial reads of huge files (§2.2, §3.2)",
		"scenario", "whole-file", "page-at-a-time")
	r.row(fmt.Sprintf("first sequential read (%d KB)", cfg.FileKB),
		millis("whole_seq_ms", wholeSeq), millis("page_seq_ms", pageSeq))
	r.row("re-read (cached)", millis("whole_reread_ms", wholeRe), millis("page_reread_ms", pageRe))
	r.row(fmt.Sprintf("read %d B of a %d MB file (cold)", cfg.PartialB, cfg.BigMB),
		millis("whole_partial_ms", wholePartial), millis("page_partial_ms", pagePartial))
	r.row("network bytes, first read", count("", wholeSeqBytes), count("", pageSeqBytes))
	r.row("server calls (whole run)", count("", wsCalls), text(fmt.Sprintf("%d page reads", pgReads)))
	return r, nil
}

// E9Config sizes the replication experiment.
type E9Config struct {
	Readers  int // workstations in the second cluster reading binaries
	Binaries int
	Reads    int // reads per workstation
}

// DefaultE9 returns the standard configuration.
func DefaultE9() E9Config {
	return E9Config{Readers: 10, Binaries: 12, Reads: 30}
}

// E9ReadOnlyReplication measures read-only replication of system binaries:
// without it, every fetch from another cluster crosses the backbone and
// lands on the custodian; with a replica on the local cluster server, reads
// are served locally, balancing load and cutting cross-cluster traffic
// (§3.2, §4 "localize if possible").
func E9ReadOnlyReplication(cfg E9Config) (*Report, error) {
	run := func(replicate bool) (backbone int64, custodianFetch, replicaFetch int64, mean time.Duration, err error) {
		cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Revised, Clusters: 2})
		root := "/unix/bin"
		err = asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
			vid, err := sysVolume(p, admin, root)
			if err != nil {
				return err
			}
			op := cell.AddWorkstation(0, "op")
			if err := login(p, op, "operator"); err != nil {
				return err
			}
			for i := 0; i < cfg.Binaries; i++ {
				data := make([]byte, 20<<10)
				if err := op.FS.WriteFile(p, fmt.Sprintf("/vice/unix/bin/b%02d", i), data); err != nil {
					return err
				}
			}
			if replicate {
				if root, err = release(p, admin, vid, root, cell.Servers[1:]); err != nil {
					return err
				}
			}
			for u := 0; u < cfg.Readers; u++ {
				if err := newUsers(p, admin, "", fmt.Sprintf("reader%d", u)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return
		}
		frames0 := cell.Net.CrossClusterFrames()
		f0, _, _ := cell.Servers[0].Vice.TrafficStats()
		f1, _, _ := cell.Servers[1].Vice.TrafficStats()
		var totalTime time.Duration
		var reads int
		for u := 0; u < cfg.Readers; u++ {
			_, err = station(cell, 1, fmt.Sprintf("dorm%d", u), fmt.Sprintf("reader%d", u), func(p *sim.Proc, ws *itcfs.Workstation) error {
				for i := 0; i < cfg.Reads; i++ {
					t0 := p.Now()
					if _, err := ws.FS.ReadFile(p, fmt.Sprintf("/vice%s/b%02d", root, i%cfg.Binaries)); err != nil {
						return err
					}
					totalTime += p.Now().Sub(t0)
					reads++
				}
				return nil
			})
			if err != nil {
				return
			}
		}
		backbone = cell.Net.CrossClusterFrames() - frames0
		f0b, _, _ := cell.Servers[0].Vice.TrafficStats()
		f1b, _, _ := cell.Servers[1].Vice.TrafficStats()
		custodianFetch = f0b - f0
		replicaFetch = f1b - f1
		mean = totalTime / time.Duration(reads)
		return
	}

	bbNo, custNo, replNo, meanNo, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("unreplicated: %w", err)
	}
	bbYes, custYes, replYes, meanYes, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("replicated: %w", err)
	}

	r := newReport("E9", "Read-only replication of system binaries",
		"replicas serve from the nearest cluster server, balancing load and localizing traffic (§3.2)",
		"metric", "single custodian", "replicated")
	r.row("backbone frames", count("backbone_single", bbNo), count("backbone_replicated", bbYes))
	r.row("bytes fetched from custodian", count("", custNo), count("", custYes))
	r.row("bytes fetched from replica", count("", replNo), count("replica_bytes", replYes))
	r.row("mean read latency", millis("latency_single_ms", meanNo), millis("latency_replicated_ms", meanYes))
	return r, nil
}

// E10Config sizes the revocation experiment.
type E10Config struct {
	Servers int // replicas the protection database update must reach
	Groups  int // groups granting the victim access
}

// DefaultE10 returns the standard configuration.
func DefaultE10() E10Config {
	return E10Config{Servers: 6, Groups: 8}
}

// E10Revocation compares the two ways to revoke a user's access (§3.4):
// removing the user from every group that grants access — a replicated
// protection-database update coordinated across all servers — against a
// single negative-rights entry on the object's access list, the rapid
// revocation mechanism.
func E10Revocation(cfg E10Config) (*Report, error) {
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Prototype, Clusters: cfg.Servers})
	group := func(g int) string { return fmt.Sprintf("grp%d", g) }
	err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		if err := newUsers(p, admin, "", "victim", "owner"); err != nil {
			return err
		}
		// The victim gets access through several nested groups.
		for g := 0; g < cfg.Groups; g++ {
			if err := admin.Protect(p, prot.Mutation{Kind: prot.MutAddGroup, Name: group(g), Owner: "owner"}); err != nil {
				return err
			}
			if err := admin.Protect(p, prot.Mutation{Kind: prot.MutAddMember, Name: group(g), Member: "victim"}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	acl := prot.NewACL()
	acl.Grant("owner", prot.RightsAll)
	for g := 0; g < cfg.Groups; g++ {
		acl.Grant(group(g), prot.RightsAll)
	}
	owner, err := station(cell, 0, "owner-ws", "owner", func(p *sim.Proc, ws *itcfs.Workstation) error {
		if err := ws.Venus.SetACL(p, "/usr/owner", proto.ACLEncode(acl)); err != nil {
			return err
		}
		return ws.FS.WriteFile(p, "/vice/usr/owner/doc", []byte("sensitive"))
	})
	if err != nil {
		return nil, err
	}

	// Path A: negative rights — one SetACL at one site. Elapsed time is
	// measured inside the process: kernel runs sweep past lingering call
	// timeouts, which must not count.
	negCalls0 := totalCalls(cell)
	var negTime time.Duration
	err = cell.Do(func(p *sim.Proc) error {
		acl.Deny("victim", prot.RightsAll)
		t0 := p.Now()
		err := owner.Venus.SetACL(p, "/usr/owner", proto.ACLEncode(acl))
		negTime = p.Now().Sub(t0)
		return err
	})
	if err != nil {
		return nil, err
	}
	negCalls := totalCalls(cell) - negCalls0

	// Path B: group removal — one protection-server mutation per group,
	// each replicated to every server.
	dbCalls0 := totalCalls(cell)
	var dbTime time.Duration
	err = asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		t0 := p.Now()
		for g := 0; g < cfg.Groups; g++ {
			if err := admin.Protect(p, prot.Mutation{Kind: prot.MutRemoveMember, Name: group(g), Member: "victim"}); err != nil {
				return err
			}
		}
		dbTime = p.Now().Sub(t0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	dbCalls := totalCalls(cell) - dbCalls0

	// Both paths leave the victim locked out.
	_, err = station(cell, 0, "victim-ws", "victim", func(p *sim.Proc, ws *itcfs.Workstation) error {
		if _, err := ws.FS.ReadFile(p, "/vice/usr/owner/doc"); err == nil {
			return fmt.Errorf("E10: victim still has access after both revocations")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	r := newReport("E10", "Rapid revocation: negative rights vs protection-database update",
		"negative rights revoke at a single site; group changes must update every server (§3.4)",
		"metric", "negative right", fmt.Sprintf("group removal (%d groups, %d servers)", cfg.Groups, cfg.Servers))
	r.row("server calls", count("neg_calls", negCalls), count("db_calls", dbCalls))
	r.row("elapsed (virtual)", millis("neg_ms", negTime), millis("db_ms", dbTime))
	r.row("sites touched", text("1"), count("", cfg.Servers))
	return r, nil
}

func totalCalls(cell *itcfs.Cell) int64 {
	var n int64
	for _, s := range cell.Servers {
		n += s.Endpoint.CallsTotal()
	}
	return n
}
