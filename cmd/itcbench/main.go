// Command itcbench regenerates the paper's evaluation (§5.2): every
// quantitative claim has an experiment (E1–E17, indexed in DESIGN.md §3) that
// runs the corresponding workload on the simulated cell and prints a
// paper-vs-measured table. SCALE and E17 measure the simulator itself and run
// only on request.
//
// Usage:
//
//	itcbench            # run the standard suite (a few minutes of CPU)
//	itcbench -quick     # scaled-down versions of everything
//	itcbench -full      # the paper-sized deployment (120 WS, 8-hour day)
//	itcbench -run E4    # one experiment (comma-separated list accepted)
//	itcbench -run E13 -trace -trace-out trace.json
//	                    # also dump the traced benchmark as Chrome
//	                    # trace-event JSON (load in Perfetto)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"itcfs"
	"itcfs/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// writeFile creates path, hands it to write and closes it, returning the
// first error of the three.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// run is the whole command: it parses args, runs the selected experiments,
// writes the requested exports and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("itcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "scaled-down experiments (fast)")
	full := fs.Bool("full", false, "paper-sized deployment (slow)")
	run := fs.String("run", "", "comma-separated experiment IDs (default all)")
	traceFlag := fs.Bool("trace", false, "export a Chrome trace of the instrumented benchmark")
	traceOut := fs.String("trace-out", "trace.json", "trace output path (with -trace)")
	timeline := fs.Bool("timeline", false, "print the E15 telemetry dashboard and flight recorder")
	timelineOut := fs.String("timeline-out", "", "write the E15 dashboard and flight recorder to this file")
	seriesOut := fs.String("series-out", "", "export the E15 time series (.json = JSON, otherwise CSV)")
	clients := fs.String("clients", "", "comma-separated client counts for the kernel scale bench (implies -run SCALE; with -run E14 it replaces the protocol sweep)")
	scaleOut := fs.String("scale-out", "", "write the scale bench result as BENCH_scale.json-format JSON to this path")
	scaleReps := fs.Int("scale-reps", 1, "scale/obs bench measurement repetitions per client count (best-of)")
	obsOut := fs.String("obs-out", "", "write the E17 observability bench result as BENCH_obs.json-format JSON to this path")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	want := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	if *clients != "" && !want["E17"] {
		// -clients selects the scale bench: standalone, or in place of E14's
		// protocol sweep when the caller asked for E14 (the CI smoke runs
		// `-run E14 -clients 10000 -quick`). With -run E17 the counts feed
		// the observability ablation instead.
		delete(want, "E14")
		want["SCALE"] = true
	}
	selected := func(id string) bool {
		if len(want) == 0 {
			// The default sweep regenerates the paper's evaluation; the SCALE
			// and E17 benches measure the simulator itself (minutes at 30k
			// clients) and run only on explicit request (-run SCALE/-clients,
			// -run E17).
			return id != "SCALE" && id != "E17"
		}
		return want[strings.ToUpper(id)]
	}

	// clientCounts replaces a config's client list with the -clients one.
	clientCounts := func(into *[]int) error {
		if *clients == "" {
			return nil
		}
		*into = nil
		for _, s := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -clients entry %q", s)
			}
			*into = append(*into, n)
		}
		return nil
	}

	type exp struct {
		id string
		fn func() (*harness.Report, error)
	}
	var e15 *harness.E15Result
	var scaleRes *harness.ScaleBench
	var obsRes *harness.ObsBench
	scale := 1.0
	if *quick {
		scale = 0.25
	}
	if *full {
		scale = 4.0
	}
	dur := func(d time.Duration) time.Duration { return time.Duration(float64(d) * scale) }
	users := func(n int) int {
		u := int(float64(n) * scale)
		if u < 4 {
			u = 4
		}
		return u
	}

	experiments := []exp{
		{"E1", func() (*harness.Report, error) {
			cfg := harness.DefaultE1()
			cfg.Load.UsersPer = users(20)
			cfg.Warm = dur(30 * time.Minute)
			cfg.Measure = dur(2 * time.Hour)
			return harness.E1CallMix(cfg)
		}},
		{"E2", func() (*harness.Report, error) {
			cfg := harness.DefaultE2()
			if *quick {
				cfg.Load.Clusters = 2
				cfg.Load.UsersPer = 8
			}
			if *full {
				cfg.Measure = 8 * time.Hour
			}
			return harness.E2Utilization(cfg)
		}},
		{"E3", func() (*harness.Report, error) {
			cfg := harness.DefaultE3()
			cfg.Load.UsersPer = users(20)
			cfg.Warm = dur(30 * time.Minute)
			cfg.Measure = dur(time.Hour)
			return harness.E3HitRatio(cfg)
		}},
		{"E4", func() (*harness.Report, error) {
			return harness.E4AndrewBenchmark(harness.DefaultE4())
		}},
		{"E4r", func() (*harness.Report, error) {
			cfg := harness.DefaultE4()
			cfg.Mode = itcfs.Revised
			r, err := harness.E4AndrewBenchmark(cfg)
			if err == nil {
				r.ID = "E4r"
				r.Title += " (revised implementation)"
			}
			return r, err
		}},
		{"E5", func() (*harness.Report, error) {
			cfg := harness.DefaultE5()
			if *quick {
				cfg.LoadWS = []int{0, 10, 20}
			}
			if *full {
				cfg.LoadWS = []int{0, 5, 10, 20, 30, 40, 50}
			}
			return harness.E5Scalability(cfg)
		}},
		{"E6", func() (*harness.Report, error) {
			cfg := harness.DefaultE6()
			cfg.UsersPer = users(20)
			cfg.Warm = dur(30 * time.Minute)
			cfg.Measure = dur(time.Hour)
			return harness.E6ValidationAblation(cfg)
		}},
		{"E7", func() (*harness.Report, error) {
			return harness.E7PathnameAblation(harness.DefaultE7())
		}},
		{"E8", func() (*harness.Report, error) {
			return harness.E8WholeFileVsPaged(harness.DefaultE8())
		}},
		{"E9", func() (*harness.Report, error) {
			cfg := harness.DefaultE9()
			cfg.Readers = users(10)
			return harness.E9ReadOnlyReplication(cfg)
		}},
		{"E10", func() (*harness.Report, error) {
			return harness.E10Revocation(harness.DefaultE10())
		}},
		{"E11", func() (*harness.Report, error) {
			return harness.E11Rebalance(harness.DefaultE11())
		}},
		{"E13", func() (*harness.Report, error) {
			return harness.E13LatencyBreakdown(harness.DefaultE13())
		}},
		{"E14", func() (*harness.Report, error) {
			cfg := harness.DefaultE14()
			if *quick {
				cfg.Clients = []int{25, 50}
			}
			return harness.E14Scalability(cfg)
		}},
		{"E15", func() (*harness.Report, error) {
			cfg := harness.DefaultE15()
			if *quick {
				cfg.Cadence = 15 * time.Second
				cfg.Phase = dur(10 * time.Minute)
				cfg.MoveGrace = 30 * time.Second
			}
			res, err := harness.E15HotVolume(cfg)
			if err != nil {
				return nil, err
			}
			e15 = res
			return res.Report, nil
		}},
		{"E16", func() (*harness.Report, error) {
			cfg := harness.DefaultE16()
			if *quick {
				cfg.Window = 3 * time.Minute
				cfg.SysFiles = 12
			}
			res, err := harness.E16Replication(cfg)
			if err != nil {
				return nil, err
			}
			return res.Report, nil
		}},
		{"E17", func() (*harness.Report, error) {
			cfg := harness.DefaultE17()
			if err := clientCounts(&cfg.Clients); err != nil {
				return nil, err
			}
			cfg.Reps = *scaleReps
			ob, err := harness.RunObsBench(cfg)
			if err != nil {
				return nil, err
			}
			obsRes = ob
			return ob.Report(), nil
		}},
		{"SCALE", func() (*harness.Report, error) {
			cfg := harness.DefaultScaleBench()
			if err := clientCounts(&cfg.Clients); err != nil {
				return nil, err
			}
			cfg.Quick = *quick
			cfg.Reps = *scaleReps
			sb, err := harness.RunScaleBench(cfg)
			if err != nil {
				return nil, err
			}
			scaleRes = sb
			return sb.Report(), nil
		}},
	}

	fmt.Fprintln(stdout, "itcbench — reproduction of 'The ITC Distributed File System' (SOSP 1985), §5.2")
	failed := 0
	for _, e := range experiments {
		if !selected(e.id) {
			continue
		}
		start := time.Now() //itcvet:allow wallclock -- reports how long the experiment took to simulate
		r, err := e.fn()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.id, err)
			failed++
			continue
		}
		r.Print(stdout)
		fmt.Fprintf(stdout, "  (%.1fs wall clock)\n", time.Since(start).Seconds()) //itcvet:allow wallclock -- operator-facing elapsed time, not in any result
	}

	// The exports, in flag order; the first that cannot be written ends the
	// run.
	exports := func() error {
		if *traceFlag {
			if err := writeFile(*traceOut, func(w io.Writer) error {
				return harness.ExportTracedAndrew(itcfs.Revised, harness.DefaultE13(), w)
			}); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			fmt.Fprintf(stdout, "wrote Chrome trace of the revised-mode Andrew run to %s\n", *traceOut)
		}
		if *scaleOut != "" {
			if scaleRes == nil {
				return errors.New("scale-out: no scale bench result (run with -run SCALE or -clients, and check it succeeded)")
			}
			if err := writeFile(*scaleOut, scaleRes.WriteJSON); err != nil {
				return fmt.Errorf("scale-out: %w", err)
			}
			fmt.Fprintf(stdout, "wrote kernel scale bench to %s\n", *scaleOut)
		}
		if *obsOut != "" {
			if obsRes == nil {
				return errors.New("obs-out: no observability bench result (run with -run E17, and check it succeeded)")
			}
			if err := writeFile(*obsOut, obsRes.WriteJSON); err != nil {
				return fmt.Errorf("obs-out: %w", err)
			}
			fmt.Fprintf(stdout, "wrote observability bench to %s\n", *obsOut)
		}
		if *timeline || *timelineOut != "" || *seriesOut != "" {
			if e15 == nil {
				return errors.New("timeline: no E15 result (run with -run E15, and check it succeeded)")
			}
			if *timeline {
				fmt.Fprint(stdout, "\n"+e15.Timeline+"\n"+e15.Flight)
			}
			if *timelineOut != "" {
				if err := os.WriteFile(*timelineOut, []byte(e15.Timeline+"\n"+e15.Flight), 0o644); err != nil {
					return fmt.Errorf("timeline: %w", err)
				}
			}
			if *seriesOut != "" {
				write := e15.Cell.Sampler.WriteCSV
				if strings.HasSuffix(*seriesOut, ".json") {
					write = e15.Cell.Sampler.WriteJSON
				}
				if err := writeFile(*seriesOut, write); err != nil {
					return fmt.Errorf("series: %w", err)
				}
			}
		}
		return nil
	}
	if err := exports(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}
