package main

import (
	"fmt"
	"io"
	"os"
)

// compareFiles prints, per workload and compared metric, both sides' medians,
// how much worse B is than A, the bound, and a verdict:
//
//	ok          B's median is not worse than A's by more than the bound
//	worse       it is
//	unresolved  one side's runs spread wider than the bound, so neither can
//	            be claimed — unless every run of B beats every run of A (ok)
//	            or loses to every run of A by more than the bound (worse)
//
// The files are summaries in the order they were taken, sides alternating:
// A B, or A B A B ... Each side's summaries are pooled. On a machine whose
// speed drifts from one quarter of an hour to the next only alternation puts
// both sides through the same weather. It exits non-zero if any row is worse.
func compareFiles(w io.Writer, paths []string) int {
	var sides [2]Summary
	for i, path := range paths {
		var s Summary
		if err := readJSONFile(path, &s); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		side := &sides[i%2]
		if i < 2 {
			*side = s
			continue
		}
		if s.Seed != side.Seed || s.Seconds != side.Seconds || s.Traced != side.Traced {
			fmt.Fprintf(os.Stderr, "bench: %s was not taken with the settings of %s\n", path, paths[i%2])
			return 2
		}
		side.Runs += s.Runs
		for _, wl := range sortedKeys(s.Workloads) {
			if side.Workloads[wl] == nil { // every run of it failed in the earlier summaries
				side.Workloads[wl] = map[string]Spread{}
			}
			for _, k := range sortedKeys(s.Workloads[wl]) {
				sp := s.Workloads[wl][k]
				side.Workloads[wl][k] = spreadOf(append(side.Workloads[wl][k].Values, sp.Values...), sp.Unit)
			}
		}
	}
	a, b := sides[0], sides[1]
	fmt.Fprintf(w, "A: commit %s  seed %d  runs %d\n", a.Env.Commit, a.Seed, a.Runs)
	fmt.Fprintf(w, "B: commit %s  seed %d  runs %d\n", b.Env.Commit, b.Seed, b.Runs)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "verdict")
	code := 0
	for _, wl := range workloadSpecs {
		for _, m := range comparedSpecs {
			sa, okA := a.Workloads[wl.Name][m.Name]
			sb, okB := b.Workloads[wl.Name][m.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s  missing\n", wl.Name, m.Name, "-", "-", "-", "-")
				code = 1
				continue
			}
			v := verdict(sa, sb, m)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n",
				wl.Name, m.Name, sa.Median, sb.Median, 100*worseBy(sa.Median, sb.Median, m.Better), 100*m.Bound, v)
		}
	}
	return code
}

// worseBy is how much worse b is than a, as a share of a: positive is worse
// whichever direction is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

func verdict(a, b Spread, m MetricSpec) string {
	spread := func(s Spread) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Max - s.Min) / s.Median
	}
	worse := worseBy(a.Median, b.Median, m.Better) > m.Bound
	if spread(a) <= m.Bound && spread(b) <= m.Bound {
		if worse {
			return "worse"
		}
		return "ok"
	}
	// One side's runs spread wider than the bound: the medians alone settle
	// nothing, only a clean sweep does.
	bBetter, bWorse := b.Max < a.Min, b.Min > a.Max
	if m.Better == higher {
		bBetter, bWorse = bWorse, bBetter
	}
	switch {
	case bBetter:
		return "ok"
	case bWorse && worse:
		return "worse"
	}
	return "unresolved"
}
