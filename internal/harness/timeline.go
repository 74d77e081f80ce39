package harness

import (
	"fmt"
	"strings"
	"time"

	"itcfs"
	"itcfs/internal/monitor"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// E15Config sizes the saturation-timeline experiment.
type E15Config struct {
	HotCellConfig
	// MoveGrace separates phases B and C: the first half drains in-flight
	// phase-B operations, then the operator moves the hot volume.
	MoveGrace time.Duration
}

// DefaultE15 returns the standard configuration: phase B offers roughly 110%
// of one server's CPU (hot + warm + background), and after the hot volume
// moves, each server carries well under the detection threshold.
func DefaultE15() E15Config {
	return E15Config{
		HotCellConfig: HotCellConfig{
			Seed:    1,
			Cadence: 30 * time.Second,
			Phase:   10 * time.Minute,
		},
		MoveGrace: time.Minute,
	}
}

// E15Result is the experiment outcome plus its rendered telemetry surfaces,
// which itcbench -timeline prints and the determinism test byte-compares.
type E15Result struct {
	Report  *Report
	Cell    *itcfs.Cell
	Finding monitor.HotVolume
	// Timeline is the sampler's text dashboard; Flight the recorder dump.
	Timeline string
	Flight   string
}

// E15HotVolume replays §5.2's saturation story in time-resolved form. Two
// public volumes live on server0; in phase B a burst of cluster-1 readers
// drives server0 over its CPU ceiling while server1 idles. The windowed
// overload detector reads the sampled telemetry, names the onset window and
// the hottest volume, and recommends moving it to the coolest peer; a
// simulated operator applies the move, and phase C runs the same load with
// both servers below threshold. Everything — series, dashboard, flight
// recorder, the report — replays byte-identically under one seed.
func E15HotVolume(cfg E15Config) (*E15Result, error) {
	h, err := newHotCell(cfg.HotCellConfig, nil)
	if err != nil {
		return nil, fmt.Errorf("E15 %w", err)
	}
	cell := h.cell
	spawnPhase := func(until sim.Time, shared bool) {
		if shared {
			h.spawnShared(until)
		}
		h.spawnBackground(until)
	}

	// Telemetry on. From here the kernel is driven with RunUntil only: the
	// sampler's tick events extend to the horizon, and Run() would drain
	// straight through it.
	t0 := cell.Now()
	horizon := 3*cfg.Phase + cfg.MoveGrace + cfg.Cadence
	sampler := cell.StartSampling(cfg.Cadence, horizon)

	// Phase A: background load only — the calm before.
	aEnd := t0.Add(cfg.Phase)
	spawnPhase(aEnd, false)
	if err := h.runUntil(aEnd); err != nil {
		return nil, err
	}

	// Phase B: the cluster-1 readers pile onto server0's public volumes.
	bEnd := aEnd.Add(cfg.Phase)
	spawnPhase(bEnd, true)
	if err := h.runUntil(bEnd); err != nil {
		return nil, err
	}

	// The detector reads the sampled series as they stand at the end of B.
	adv := monitor.New(cell)
	findings := adv.DetectOverload(sampler)
	if len(findings) == 0 {
		return nil, fmt.Errorf("E15: overload detector found nothing at end of phase B")
	}
	hv := findings[0]
	if hv.To == "" {
		return nil, fmt.Errorf("E15: detector produced no destination for volume %d", hv.Volume)
	}

	// Let in-flight phase-B operations drain, then the operator moves the
	// hot volume and salvages it at its new custodian.
	drainEnd := bEnd.Add(cfg.MoveGrace / 2)
	cell.Kernel.RunUntil(drainEnd)
	target := -1
	for i, s := range cell.Servers {
		if s.Vice.Name() == hv.To {
			target = i
		}
	}
	if target < 0 {
		return nil, fmt.Errorf("E15: detector recommended unknown server %s", hv.To)
	}
	moved := false
	cell.Kernel.Spawn("operator-move", func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		if err = admin.MoveVolume(p, hv.Volume, hv.To); err != nil {
			return
		}
		dst, aerr := cell.Admin(p, target)
		if aerr != nil {
			err = aerr
			return
		}
		if _, err = dst.Salvage(p, hv.Volume); err != nil {
			return
		}
		moved = true
	})
	moveEnd := bEnd.Add(cfg.MoveGrace)
	cell.Kernel.RunUntil(moveEnd)
	if err != nil {
		return nil, fmt.Errorf("E15 operator: %w", err)
	}
	if !moved {
		return nil, fmt.Errorf("E15: volume move did not finish within the grace window")
	}

	// Phase C: the same load, rebalanced.
	cEnd := moveEnd.Add(cfg.Phase)
	spawnPhase(cEnd, true)
	if err := h.runUntil(cEnd); err != nil {
		return nil, err
	}

	utilStats := func(server string, from, to sim.Time) (mean, peak float64) {
		n := 0
		for _, p := range sampler.Points(trace.ServerCPUSeries(server)) {
			if p.At > from && p.At <= to {
				u := float64(p.V) / float64(cfg.Cadence)
				mean += u
				n++
				if u > peak {
					peak = u
				}
			}
		}
		if n > 0 {
			mean /= float64(n)
		}
		return mean, peak
	}
	s0, s1 := cell.Servers[0].Vice.Name(), cell.Servers[1].Vice.Name()
	meanA0, _ := utilStats(s0, t0, aEnd)
	meanA1, _ := utilStats(s1, t0, aEnd)
	meanB0, peakB0 := utilStats(s0, aEnd, bEnd)
	meanB1, peakB1 := utilStats(s1, aEnd, bEnd)
	meanC0, peakC0 := utilStats(s0, moveEnd, cEnd)
	meanC1, peakC1 := utilStats(s1, moveEnd, cEnd)

	r := newReport("E15", "Time-series telemetry: detect and relieve a saturated server",
		"server CPU \"sometimes peaking at 98% utilization\" (§5.2); volume moves rebalance load (§3.6)",
		"phase / metric", s0, s1)
	r.row("A background · mean CPU util", share("mean_a_s0", meanA0), share("", meanA1))
	r.row("B hot volumes · mean CPU util", share("mean_b_s0", meanB0), share("mean_b_s1", meanB1))
	r.row("B hot volumes · peak CPU util", share("peak_b_s0", peakB0), share("peak_b_s1", peakB1))
	r.row("C after move · mean CPU util", share("mean_c_s0", meanC0), share("mean_c_s1", meanC1))
	r.row("C after move · peak CPU util", share("peak_c_s0", peakC0), share("peak_c_s1", peakC1))
	r.row("overload onset (virtual time)", entry{hv.Onset.String(), "onset_s", hv.Onset.Seconds()}, text("—"))
	r.row("windows over threshold", count("overload_windows", hv.Windows), text("—"))
	r.row("hottest volume", entry{fmt.Sprintf("vol %d (%d sampled ops)", hv.Volume, hv.VolumeOps), "hot_volume", float64(hv.Volume)}, text("—"))
	r.addRow("applied move", fmt.Sprintf("vol %d → %s", hv.Volume, hv.To), "—")
	r.row("flight events recorded", count("flight_events", cell.Flight.Total()), text("—"))

	r.Metrics["detector_fired"] = 1
	r.Metrics["b_start_s"] = aEnd.Seconds()
	r.Metrics["b_end_s"] = bEnd.Seconds()
	r.Metrics["expected_hot_volume"] = float64(h.hotVol)
	r.Metrics["imbalance_b"] = meanB0 - meanB1
	r.Metrics["imbalance_c"] = meanC0 - meanC1

	var tl, fl strings.Builder
	sampler.WriteDashboard(&tl)
	cell.Flight.WriteText(&fl)
	return &E15Result{
		Report:   r,
		Cell:     cell,
		Finding:  hv,
		Timeline: tl.String(),
		Flight:   fl.String(),
	}, nil
}
