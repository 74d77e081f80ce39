package monitor

import (
	"fmt"
	"strings"
	"testing"

	"itcfs"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// buildMisplaced provisions a cell where a user's volume lives on cluster
// 0's server but the user works in cluster 1 — the situation the paper's
// monitoring tools exist to detect (§3.6).
func buildMisplaced(t *testing.T, metrics *trace.Registry) (*itcfs.Cell, *itcfs.Workstation, uint32) {
	t.Helper()
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Prototype, Clusters: 2, Metrics: metrics})
	var vid uint32
	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		// Volume created (and left) on server0.
		vid, err = admin.NewUserAt(p, "mover", "pw", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := cell.AddWorkstation(1, "dorm-ws") // but the user works in cluster 1
	cell.Run(func(p *sim.Proc) {
		if lerr := ws.Login(p, "mover", "pw"); lerr != nil {
			err = lerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return cell, ws, vid
}

func drive(t *testing.T, cell *itcfs.Cell, ws *itcfs.Workstation, ops int) {
	t.Helper()
	var err error
	cell.Run(func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			path := fmt.Sprintf("/vice/usr/mover/f%d", i%5)
			if i < 5 {
				if err = ws.FS.WriteFile(p, path, []byte("contents")); err != nil {
					return
				}
			}
			if _, err = ws.FS.ReadFile(p, path); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdvisorDetectsMisplacedVolume(t *testing.T) {
	cell, ws, vid := buildMisplaced(t, nil)
	adv := New(cell)
	adv.Reset()
	drive(t, cell, ws, 80)

	recs := adv.Recommend()
	var found *Recommendation
	for i := range recs {
		if recs[i].Volume == vid {
			found = &recs[i]
		}
	}
	if found == nil {
		t.Fatalf("no recommendation for volume %d: %+v", vid, recs)
	}
	if found.From != "server0" || found.To != "server1" {
		t.Fatalf("recommendation = %+v, want server0 -> server1", found)
	}
	if found.RemoteShare < 0.9 {
		t.Fatalf("remote share = %v, want ≈1.0 (all traffic is remote)", found.RemoteShare)
	}
}

func TestAppliedRecommendationLocalizesTraffic(t *testing.T) {
	cell, ws, vid := buildMisplaced(t, nil)
	adv := New(cell)
	adv.Reset()
	drive(t, cell, ws, 80)
	recs := adv.Recommend()
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}

	// Measure cross-cluster traffic per access burst before the move.
	before0 := cell.Net.CrossClusterFrames()
	drive(t, cell, ws, 40)
	crossBefore := cell.Net.CrossClusterFrames() - before0

	// A human operator applies the top recommendation (§3.1: reassignment
	// is human-initiated).
	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		err = admin.MoveVolume(p, recs[0].Volume, recs[0].To)
	})
	if err != nil {
		t.Fatal(err)
	}

	after0 := cell.Net.CrossClusterFrames()
	drive(t, cell, ws, 40)
	crossAfter := cell.Net.CrossClusterFrames() - after0
	if crossAfter >= crossBefore {
		t.Fatalf("cross-cluster frames per burst: %d before, %d after move", crossBefore, crossAfter)
	}

	// A new observation window shows the volume well placed: no further
	// recommendation for it.
	adv.Reset()
	drive(t, cell, ws, 80)
	for _, r := range adv.Recommend() {
		if r.Volume == vid {
			t.Fatalf("volume still recommended for a move after relocation: %+v", r)
		}
	}
}

func TestAdvisorIgnoresQuietAndLocalVolumes(t *testing.T) {
	cell, ws, _ := buildMisplaced(t, nil)
	adv := New(cell)
	adv.Reset()
	// Too few operations to justify a move.
	drive(t, cell, ws, 3)
	if recs := adv.Recommend(); len(recs) != 0 {
		t.Fatalf("advisor recommended on %d ops: %+v", 3, recs)
	}

	// A well-placed volume (custodian in the user's own cluster) is never
	// recommended regardless of volume of traffic.
	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		_, err = admin.NewUserAt(p, "localuser", "pw", 0, "server0")
	})
	if err != nil {
		t.Fatal(err)
	}
	local := cell.AddWorkstation(0, "office-ws")
	cell.Run(func(p *sim.Proc) {
		if lerr := local.Login(p, "localuser", "pw"); lerr != nil {
			err = lerr
			return
		}
		for i := 0; i < 100; i++ {
			path := "/vice/usr/localuser/f"
			if i == 0 {
				if err = local.FS.WriteFile(p, path, []byte("x")); err != nil {
					return
				}
			}
			if _, err = local.FS.ReadFile(p, path); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	adv.Reset()
	cell.Run(func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			if _, err = local.FS.ReadFile(p, "/vice/usr/localuser/f"); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range adv.Recommend() {
		if r.From == "server0" && r.To == "server0" {
			t.Fatalf("degenerate recommendation: %+v", r)
		}
		if r.Reason == "" {
			t.Fatalf("recommendation without reason: %+v", r)
		}
	}
}

func TestAdvisorCitesObservedLatency(t *testing.T) {
	cell, ws, vid := buildMisplaced(t, trace.NewRegistry())
	adv := New(cell)
	adv.Reset()
	drive(t, cell, ws, 80)

	var found *Recommendation
	recs := adv.Recommend()
	for i := range recs {
		if recs[i].Volume == vid {
			found = &recs[i]
		}
	}
	if found == nil {
		t.Fatalf("no recommendation for volume %d: %+v", vid, recs)
	}
	if found.P90 <= 0 {
		t.Fatalf("P90 = %v, want observed latency from the metrics registry", found.P90)
	}
	if !strings.Contains(found.Reason, "p90") {
		t.Fatalf("reason %q does not cite the observed p90", found.Reason)
	}
}
