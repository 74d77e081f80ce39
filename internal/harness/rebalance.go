package harness

import (
	"fmt"
	"time"

	"itcfs"
	"itcfs/internal/monitor"
	"itcfs/internal/sim"
)

// E11Config sizes the rebalancing experiment.
type E11Config struct {
	// Movers is the number of users whose volumes start on the wrong
	// cluster (they "moved dormitories", §3.1's example).
	Movers  int
	OpsEach int
}

// DefaultE11 returns the standard configuration.
func DefaultE11() E11Config {
	return E11Config{Movers: 6, OpsEach: 60}
}

// E11Rebalance exercises the monitoring tools of §3.6 end to end: users
// whose volumes live in the wrong cluster generate cross-cluster traffic;
// the Advisor detects the misplacement from the servers' access counters;
// a (simulated) human operator applies the recommended volume moves; and
// the same workload afterwards stays inside its clusters. This is the
// paper's "if a student moves from one dormitory to another he may request
// that his files be moved to the cluster server at his new location",
// automated up to the human decision.
func E11Rebalance(cfg E11Config) (*Report, error) {
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Prototype, Clusters: 2})
	var movers []string
	for i := 0; i < cfg.Movers; i++ {
		movers = append(movers, fmt.Sprintf("mover%d", i))
	}
	// Volumes created on server0 — but the users work in cluster 1.
	if err := provision(cell, movers...); err != nil {
		return nil, err
	}
	var stations []*itcfs.Workstation
	for i, mover := range movers {
		ws, err := station(cell, 1, fmt.Sprintf("dorm%d", i), mover, func(p *sim.Proc, ws *itcfs.Workstation) error {
			for f := 0; f < 5; f++ {
				if err := ws.FS.WriteFile(p, fmt.Sprintf("/vice/usr/%s/f%d", mover, f), []byte("contents")); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		stations = append(stations, ws)
	}

	burst := func() (time.Duration, int64, error) {
		frames0 := cell.Net.CrossClusterFrames()
		var total time.Duration
		for i, ws := range stations {
			err := cell.Do(func(p *sim.Proc) error {
				t0 := p.Now()
				for op := 0; op < cfg.OpsEach; op++ {
					if _, err := ws.FS.ReadFile(p, fmt.Sprintf("/vice/usr/%s/f%d", movers[i], op%5)); err != nil {
						return err
					}
				}
				total += p.Now().Sub(t0)
				return nil
			})
			if err != nil {
				return 0, 0, err
			}
		}
		return total / time.Duration(len(stations)), cell.Net.CrossClusterFrames() - frames0, nil
	}

	adv := monitor.New(cell, monitor.DefaultConfig())
	adv.Reset()
	beforeTime, beforeFrames, err := burst()
	if err != nil {
		return nil, err
	}
	recs := adv.Recommend()
	if len(recs) == 0 {
		return nil, fmt.Errorf("E11: advisor produced no recommendations")
	}
	// The operator applies every recommendation.
	err = asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		for _, r := range recs {
			if err := admin.MoveVolume(p, r.Volume, r.To); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	afterTime, afterFrames, err := burst()
	if err != nil {
		return nil, err
	}

	r := newReport("E11", "Monitoring tools: detect and repair misplaced volumes",
		"monitor access patterns, recommend reassignment, operator applies it (§3.6)",
		"metric", "before rebalancing", "after")
	r.row("volumes recommended to move", count("recommendations", len(recs)), text("0 (all applied)"))
	r.row("cross-cluster frames per burst", count("frames_before", beforeFrames), count("frames_after", afterFrames))
	r.row("mean user burst time", millis("time_before_ms", beforeTime), millis("time_after_ms", afterTime))
	return r, nil
}
