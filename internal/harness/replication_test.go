package harness

import (
	"bytes"
	"strings"
	"testing"

	"itcfs"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/vice"
)

// e16Text runs E16 and returns the printed report — the surface
// EXPERIMENTS.md quotes — so determinism is checked on exactly what a
// reader sees.
func e16Text(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := DefaultE16()
	cfg.Seed = seed
	// Small but not degenerate: the window must comfortably cover the
	// crash plus enough post-crash reads to distinguish the two legs.
	cfg.Window = 4 * 60 * 1e9 // 4 minutes
	res, err := E16Replication(cfg)
	if err != nil {
		t.Fatalf("E16 (seed %d): %v", seed, err)
	}
	var buf bytes.Buffer
	res.Report.Print(&buf)
	return buf.Bytes()
}

// TestE16Determinism re-runs the replication experiment with one seed and
// demands byte-identical report tables: the release pushes, the crash, the
// failovers and the Andrew run must all replay exactly. A different seed
// must move the table, or the check is vacuous. The experiment's own
// invariants (zero failed reads on the replicated leg, a real outage on the
// unreplicated one, every replica equal to its clone) are asserted inside
// E16Replication, so a pass here also certifies them twice.
func TestE16Determinism(t *testing.T) {
	a := e16Text(t, 16)
	b := e16Text(t, 16)
	if !bytes.Equal(a, b) {
		t.Errorf("same seed produced different E16 reports:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if len(a) < 200 {
		t.Errorf("E16 report suspiciously small (%d bytes)", len(a))
	}
	c := e16Text(t, 17)
	if bytes.Equal(a, c) {
		t.Error("different seeds produced byte-identical E16 reports; seed is not flowing")
	}
}

// TestE16Claims pins the numbers the report's availability story rests on:
// replica-local readers never even fail over, the custodian's cluster
// keeps reading through failover, the release actually pushed one install
// per replica, and every replica holds its clone's image byte for byte.
func TestE16Claims(t *testing.T) {
	cfg := DefaultE16()
	cfg.Window = 4 * 60 * 1e9
	res, err := E16Replication(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Report.Metrics
	if m["failed_replicated"] != 0 {
		t.Errorf("replicated leg failed reads = %v, want 0", m["failed_replicated"])
	}
	if m["failed_unreplicated"] == 0 {
		t.Error("unreplicated leg shows no outage; the experiment proves nothing")
	}
	if m["failovers_replicated"] == 0 {
		t.Error("no failovers on the replicated leg: cluster-0 readers never exercised the fallback path")
	}
	if got, want := m["release_installs"], float64(cfg.Clusters-1); got != want {
		t.Errorf("release installs = %v, want %v (one per replica)", got, want)
	}
	if got, want := m["replicas_equal"], float64(cfg.Clusters-1); got != want {
		t.Errorf("replicas equal to their clone = %v, want %v (every replica)", got, want)
	}
	if m["andrew_ok_replicated"] != 1 {
		t.Error("Andrew run over the replicated tree did not complete")
	}
}

// releasedCell is a three-server cell whose system volume, mounted at
// /unix/sys, holds one file and is released to server1 alone. It returns the
// read-write volume and the clone's mount point.
func releasedCell(t *testing.T) (*itcfs.Cell, uint32, string) {
	t.Helper()
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Revised, Clusters: 3})
	const root = "/unix/sys"
	var vol uint32
	err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) (err error) {
		vol, err = sysVolume(p, admin, root)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := station(cell, 0, "op-console", "operator", func(p *sim.Proc, ws *itcfs.Workstation) error {
		return ws.FS.WriteFile(p, "/vice"+root+"/ls", []byte("ls, release 1"))
	}); err != nil {
		t.Fatal(err)
	}
	var roRoot string
	err = asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) (err error) {
		roRoot, err = release(p, admin, vol, root, cell.Servers[1:2])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return cell, vol, roRoot
}

// TestEqualReplicas pins E16's replica check on its own: it counts the
// replicas it compared when every one holds the clone's image, and fails on
// a server that lacks the replica, on one whose replica differs, and when no
// clone is mounted where it looks.
func TestEqualReplicas(t *testing.T) {
	wantErr := func(t *testing.T, n int, err error, about string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), about) {
			t.Fatalf("equalReplicas = %d, %v; want an error about %s", n, err, about)
		}
	}
	t.Run("every replica equal", func(t *testing.T) {
		cell, _, roRoot := releasedCell(t)
		if n, err := equalReplicas(cell, roRoot, cell.Servers[1:2]); n != 1 || err != nil {
			t.Fatalf("equalReplicas = %d, %v; want 1, nil", n, err)
		}
		if n, err := equalReplicas(cell, roRoot, nil); n != 0 || err != nil {
			t.Fatalf("equalReplicas with no replicas = %d, %v; want 0, nil", n, err)
		}
	})
	t.Run("a replica missing", func(t *testing.T) {
		cell, _, roRoot := releasedCell(t)
		n, err := equalReplicas(cell, roRoot, cell.Servers[1:3])
		wantErr(t, n, err, "server2")
	})
	t.Run("a replica differs", func(t *testing.T) {
		cell, vol, roRoot := releasedCell(t)
		// server2 gets an image of the clone's volume ID frozen from a later
		// state of the read-write volume: a replica of the wrong release.
		if _, err := station(cell, 0, "op-console-2", "operator", func(p *sim.Proc, ws *itcfs.Workstation) error {
			return ws.FS.WriteFile(p, "/vice/unix/sys/ls", []byte("ls, release 2"))
		}); err != nil {
			t.Fatal(err)
		}
		custodian := cell.Servers[0].Vice
		le, _ := custodian.Loc().Resolve(roRoot)
		rw, _ := custodian.Volume(vol)
		later := rw.Clone(le.Volume, "sys.bin.readonly")
		resp := cell.Servers[2].Vice.Dispatcher().Dispatch(rpc.Ctx{User: vice.ServerUser}, rpc.Request{
			Op:   rpc.Op(proto.OpVolInstall),
			Body: proto.Marshal(proto.VolInstallArgs{Volume: le.Volume, Name: later.Name(), ReadOnly: true}),
			Bulk: later.Serialize(),
		})
		if !resp.OK() {
			t.Fatalf("install on server2: code %d: %s", resp.Code, resp.Body)
		}
		if n, err := equalReplicas(cell, roRoot, cell.Servers[1:2]); n != 1 || err != nil {
			t.Fatalf("equalReplicas over server1 = %d, %v; want 1, nil", n, err)
		}
		n, err := equalReplicas(cell, roRoot, cell.Servers[1:3])
		wantErr(t, n, err, "server2")
	})
	t.Run("no clone mounted", func(t *testing.T) {
		cell, _, _ := releasedCell(t)
		n, err := equalReplicas(cell, "/unix/none", cell.Servers[1:2])
		wantErr(t, n, err, "no clone mounted at /unix/none")
	})
}
