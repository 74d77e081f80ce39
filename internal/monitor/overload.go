package monitor

import (
	"fmt"

	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/vice"
)

// Windowed overload detection. The Advisor's Recommend is spatial — it finds
// volumes whose traffic comes from the wrong cluster — but §5.2's saturation
// story is temporal: a server drifts over its CPU ceiling as stat/fetch
// traffic ramps, and the operator needs to know when it started and which
// volume is driving it. DetectOverload answers both from the sampled
// telemetry: per-server CPU utilization series locate sustained overload and
// its onset, and per-volume call-rate series attribute the load to the
// hottest volume, yielding a concrete move recommendation.

// OverloadConfig tunes the detector.
type OverloadConfig struct {
	// UtilThreshold is the per-window CPU utilization (0..1) a server must
	// exceed to count as overloaded in that window.
	UtilThreshold float64
	// MinWindows is how many consecutive windows must exceed the threshold
	// before the detector fires — debounce against one-window spikes.
	MinWindows int
}

// DefaultOverloadConfig returns thresholds matching the paper's saturation
// observations ("sometimes peaking at 98% server CPU utilization"): sustained
// operation above 80% over three windows.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{UtilThreshold: 0.80, MinWindows: 3}
}

// HotVolume is one detector finding: a server in sustained overload, the
// volume driving it, and the recommended destination.
type HotVolume struct {
	Server string   // the overloaded server
	Onset  sim.Time // end of the first window of the sustained overload
	// Windows is how many sampled windows the overload spanned (to the end
	// of the series).
	Windows  int
	PeakUtil float64 // highest per-window utilization during the overload
	MeanUtil float64 // mean per-window utilization during the overload
	// Volume is the hottest volume hosted by the server over the overload
	// interval, by sampled per-window operation rate; VolumeOps is its total
	// operations in that interval.
	Volume    uint32
	VolumeOps int64
	// To is the least-loaded other server over the same interval — the
	// recommended destination for Admin.MoveVolume. Empty in a single-server
	// cell.
	To     string
	Reason string
}

// DetectOverload scans the sampler's per-server CPU series (installed by
// Cell.StartSampling) for sustained overload and attributes each finding to
// the hottest volume on the affected server. Results are ordered by server
// creation order; everything is computed from deterministic series, so the
// findings replay byte-identically under one seed.
func (a *Advisor) DetectOverload(s *trace.Sampler, cfg OverloadConfig) []HotVolume {
	if s == nil || s.Every() <= 0 {
		return nil
	}
	if cfg.UtilThreshold <= 0 {
		cfg = DefaultOverloadConfig()
	}
	if cfg.MinWindows < 1 {
		cfg.MinWindows = 1
	}
	window := float64(s.Every())
	var out []HotVolume
	for _, srv := range a.cell.Servers {
		name := srv.Vice.Name()
		pts := s.Points(trace.ServerCPUSeries(name))
		run := overloadRun(pts, window, cfg)
		if run < 0 {
			continue
		}
		hv := HotVolume{Server: name, Onset: pts[run].At, Windows: len(pts) - run}
		var sum float64
		for _, p := range pts[run:] {
			u := float64(p.V) / window
			sum += u
			if u > hv.PeakUtil {
				hv.PeakUtil = u
			}
		}
		hv.MeanUtil = sum / float64(hv.Windows)
		from, to := pts[run].At, pts[len(pts)-1].At
		hv.Volume, hv.VolumeOps = a.hottestVolume(s, srv.Vice, from, to)
		hv.To = a.coolestOther(s, name, from, to, window)
		hv.Reason = fmt.Sprintf(
			"CPU above %.0f%% for %d consecutive windows since %v (peak %.0f%%, mean %.0f%%); volume %d served %d ops in the interval",
			100*cfg.UtilThreshold, hv.Windows, hv.Onset, 100*hv.PeakUtil, 100*hv.MeanUtil,
			hv.Volume, hv.VolumeOps)
		if class, burn, ok := a.slo.WorstBurn(); ok && burn > 0 {
			hv.Reason += fmt.Sprintf("; slo burn %s=%.1fx", class, burn)
		}
		out = append(out, hv)
	}
	return out
}

// overloadRun returns the index of the first window opening a run of at
// least cfg.MinWindows consecutive over-threshold windows that extends to
// the end of the series, or -1. Requiring the run to still be live at the
// end keeps the detector from re-reporting overloads that already subsided.
func overloadRun(pts []trace.Point, window float64, cfg OverloadConfig) int {
	if len(pts) < cfg.MinWindows {
		return -1
	}
	start := -1
	for i, p := range pts {
		if float64(p.V)/window > cfg.UtilThreshold {
			if start < 0 {
				start = i
			}
		} else {
			start = -1
		}
	}
	if start < 0 || len(pts)-start < cfg.MinWindows {
		return -1
	}
	return start
}

// hottestVolume sums each locally hosted volume's sampled per-window call
// rates over [from, to] and returns the busiest (ties break to the lower
// volume ID; zero if the server hosts none or no registry is attached).
func (a *Advisor) hottestVolume(s *trace.Sampler, srv *vice.Server, from, to sim.Time) (uint32, int64) {
	var best uint32
	var bestOps int64 = -1
	for _, vol := range srv.VolumeIDs() {
		ops := sumWindow(s.Points(trace.VolOpsMetric(vol)), from, to)
		if ops > bestOps {
			best, bestOps = vol, ops
		}
	}
	if bestOps < 0 {
		return 0, 0
	}
	return best, bestOps
}

// coolestOther returns the other server with the lowest mean utilization
// over [from, to] (ties break to creation order; empty if there is none).
func (a *Advisor) coolestOther(s *trace.Sampler, overloaded string, from, to sim.Time, window float64) string {
	best := ""
	bestUtil := 0.0
	for _, srv := range a.cell.Servers {
		name := srv.Vice.Name()
		if name == overloaded {
			continue
		}
		busy := sumWindow(s.Points(trace.ServerCPUSeries(name)), from, to)
		span := float64(to-from) + window // windows are (prev, At] intervals
		util := float64(busy) / span
		if best == "" || util < bestUtil {
			best, bestUtil = name, util
		}
	}
	return best
}

// sumWindow totals the points whose timestamps fall in [from, to].
func sumWindow(pts []trace.Point, from, to sim.Time) int64 {
	var sum int64
	for _, p := range pts {
		if p.At >= from && p.At <= to {
			sum += p.V
		}
	}
	return sum
}
