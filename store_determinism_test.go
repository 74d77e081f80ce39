package itcfs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"itcfs/internal/sim"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
	"itcfs/internal/vice"
)

// storeScenario drives a fixed workload — user provisioning, writes across
// two clusters, an overwrite, reads — and reduces the run to its
// workload-visible fingerprint: final virtual time, device busy times, Venus
// counters, and the flight-recorder ring.
func storeScenario(t *testing.T, stores func(int) store.Store) (string, *Cell) {
	t.Helper()
	cell := NewCell(CellConfig{
		Mode:         Revised,
		Clusters:     2,
		FlightEvents: 256,
		Store:        stores,
	})
	cell.Run(func(p *sim.Proc) {
		admin, err := cell.Admin(p, 0)
		if err != nil {
			t.Errorf("admin: %v", err)
			return
		}
		if err := admin.NewUser(p, "satya", "pw", 0); err != nil {
			t.Errorf("new user: %v", err)
		}
	})
	ws := cell.AddWorkstation(0, "ws-a")
	ws2 := cell.AddWorkstation(1, "ws-b")
	cell.Run(func(p *sim.Proc) {
		if err := ws.Login(p, "satya", "pw"); err != nil {
			t.Errorf("login a: %v", err)
			return
		}
		if err := ws2.Login(p, "satya", "pw"); err != nil {
			t.Errorf("login b: %v", err)
			return
		}
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("/vice/usr/satya/f%d", i)
			if err := ws.FS.WriteFile(p, name, bytes.Repeat([]byte{byte('a' + i)}, 512*(i+1))); err != nil {
				t.Errorf("write %s: %v", name, err)
				return
			}
		}
		if err := ws.FS.WriteFile(p, "/vice/usr/satya/f0", []byte("rewritten")); err != nil {
			t.Errorf("overwrite: %v", err)
			return
		}
		if b, err := ws2.FS.ReadFile(p, "/vice/usr/satya/f0"); err != nil || string(b) != "rewritten" {
			t.Errorf("cross-cluster read: %q, %v", b, err)
		}
	})

	var fp strings.Builder
	fmt.Fprintf(&fp, "now=%v\n", cell.Now())
	for _, s := range cell.Servers {
		fmt.Fprintf(&fp, "%s cpu=%d disk=%d\n", s.Vice.Name(), int64(s.CPU.BusyTime()), int64(s.Disk.BusyTime()))
	}
	for _, w := range cell.Workstations() {
		fmt.Fprintf(&fp, "%s %+v\n", w.Name, w.Venus.Stats())
	}
	cell.Flight.WriteText(&fp)
	return fp.String(), cell
}

// TestStoreDeterminism is the simulator's durability contract: attaching a
// store must not perturb the simulation by one event — the fingerprint with
// journalling on (the daemon's own engine, walstore, on an in-memory FS under
// every server) is byte-identical to the fingerprint with no store at all.
// This is what lets E12–E15 keep their pinned telemetry while the same server
// code journals durably in itcfsd.
func TestStoreDeterminism(t *testing.T) {
	bare, _ := storeScenario(t, nil)

	disks := map[int]*store.MemFS{}
	journaled, cell := storeScenario(t, func(i int) store.Store {
		disks[i] = store.NewMemFS()
		s, err := walstore.Open(disks[i])
		if err != nil {
			t.Fatalf("server %d: open store: %v", i, err)
		}
		return s
	})

	if bare != journaled {
		t.Fatalf("attaching a store perturbed the simulation:\n--- no store\n%s\n--- walstore\n%s", bare, journaled)
	}
	if len(bare) < 200 {
		t.Fatalf("fingerprint suspiciously small (%d bytes)", len(bare))
	}

	// Durability cross-check: what a restart would recover from each server's
	// log — a second store opened on the same files — is exactly what the
	// live server holds, its volumes and its location rows.
	for i, s := range cell.Servers {
		restarted, err := walstore.Open(disks[i])
		if err != nil {
			t.Fatalf("server %d: reopen store: %v", i, err)
		}
		rec, err := restarted.Recover()
		if err != nil {
			t.Fatalf("server %d: recover: %v", i, err)
		}
		loc := vice.NewLocDB()
		for _, op := range rec.LocOps {
			loc.Install(op.Entries, op.Remove)
		}
		if got, want := loc.Entries(), s.Vice.Loc().Entries(); !reflect.DeepEqual(got, want) {
			t.Fatalf("server %d: store has location rows %v, server has %v", i, got, want)
		}
		ids := s.Vice.VolumeIDs()
		if len(rec.Volumes) != len(ids) {
			t.Fatalf("server %d: store has %d volumes, server has %d", i, len(rec.Volumes), len(ids))
		}
		for _, rv := range rec.Volumes {
			lv, ok := s.Vice.Volume(rv.ID())
			if !ok {
				t.Fatalf("server %d: store has volume %d the server lacks", i, rv.ID())
			}
			if !bytes.Equal(rv.Serialize(), lv.Serialize()) {
				t.Fatalf("server %d volume %d: journalled state diverged from live state", i, rv.ID())
			}
		}
	}
}
