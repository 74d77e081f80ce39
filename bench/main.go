// Command bench (itcperf) is the repository's benchmark: six workloads over
// the real workstation -> rpc -> secure -> wire -> vice -> volume -> walstore
// path and the simulator, with a per-layer traced run measured from outside.
// See README.md in this directory.
//
//	bash bench/run.sh --workload andrew_small --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -all                 # every workload, 3 runs each
//	bash bench/run.sh -all -trace 1        # every workload once, traced
//	bash bench/run.sh -compare A.json B.json [A2.json B2.json ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:])) }

// baseDir is where the benchmark keeps what it writes: bench/out under the
// repository root when run from there (as the driver does), ./out when run
// from inside bench/.
func baseDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "", "run one workload: "+workloadList())
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same op sequence")
	seconds := fs.Float64("seconds", runSeconds, "how long the measured phase lasts")
	traceFlag := fs.Int("trace", 0, "0: end-to-end run, no interposers; 1: traced run with per-layer metrics")
	all := fs.Bool("all", false, "run every workload in a fresh child process each and write a summary")
	out := fs.String("out", "", "with -all: summary file (default <out dir>/all.json)")
	compare := fs.Bool("compare", false, "compare -all summaries, sides alternating: -compare A.json B.json [A2.json B2.json ...]")
	printSpec := fs.Bool("benchmark-json", false, "print BENCHMARK.json as the metric tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := os.Stat("BENCHMARK.json"); err == nil && !*printSpec {
		if err := checkBenchmarkFile("BENCHMARK.json"); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	switch {
	case *printSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchmarkFile()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() < 2 || fs.NArg()%2 != 0 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs summary files in pairs: A B [A B ...]")
			return 2
		}
		return compareFiles(os.Stdout, fs.Args())
	case *all:
		path := *out
		if path == "" {
			path = filepath.Join(baseDir(), "all.json")
		}
		return runAll(*seed, *seconds, *traceFlag != 0, path)
	case *workloadFlag != "":
		return runSingle(*workloadFlag, *seed, *seconds, *traceFlag != 0)
	}
	fs.Usage()
	return 2
}

func workloadList() string {
	s := ""
	for i, w := range workloadSpecs {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

// runSingle is what the driver invokes: one workload, one run, the Result
// as the last line of standard output. A watchdog bounds the run — Peer.Call
// has no deadline, so a lost reply would otherwise hang it forever.
func runSingle(name string, seed int64, seconds float64, traced bool) int {
	outDir := baseDir()
	tmp := filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cleanup := func() { _ = os.RemoveAll(tmp) } // best effort on every exit path
	defer cleanup()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(130)
	}()
	// Three times the expected duration (setups, the measured phase,
	// verification), inside the driver's 180 s limit.
	limit := time.Duration(3*(seconds+15)) * time.Second
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	watchdog := time.AfterFunc(limit, func() { //itcvet:allow wallclock -- the watchdog bounds real elapsed time
		fmt.Fprintf(os.Stderr, "bench: %s hung: no result after %v; every op still outstanding counts as failed\n", name, limit)
		cleanup()
		os.Exit(3)
	})
	defer watchdog.Stop()

	rep, err := runWorkload(runOpts{name: name, seed: seed, seconds: seconds, traced: traced,
		tmp: tmp, outDir: outDir, sizes: fullSizes, setups: setupRepeats})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep.writeText(os.Stdout)
	suffix := ".json"
	if traced {
		suffix = ".trace.json"
	}
	if err := writeJSONFile(filepath.Join(outDir, name+suffix), rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// Summary is what -all writes and -compare reads: per workload, each
// metric's median, minimum and maximum over the runs.
type Summary struct {
	Env       Env                          `json:"env"`
	Seed      int64                        `json:"seed"`
	Seconds   float64                      `json:"seconds"`
	Traced    bool                         `json:"traced"`
	Runs      int                          `json:"runs"`
	Workloads map[string]map[string]Spread `json:"workloads"`
	Failed    map[string]int64             `json:"failed"`
}

// Spread is one metric over several runs.
type Spread struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func spreadOf(v []float64, unit string) Spread {
	s := sortedF(v)
	return Spread{Median: medianF(v), Min: s[0], Max: s[len(s)-1], Unit: unit, Values: v}
}

// runsPerWorkload is how many end-to-end runs -all makes of each workload;
// the summary holds their median. A traced pass makes one.
const runsPerWorkload = 3

// runAll runs every workload, each run in a fresh child process so that
// peak RSS, GC state and data directories do not leak from one to the next.
func runAll(seed int64, seconds float64, traced bool, outPath string) int {
	runs := runsPerWorkload
	if traced {
		runs = 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	outDir := baseDir()
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sum := &Summary{Env: environment(), Seed: seed, Seconds: seconds, Traced: traced, Runs: runs,
		Workloads: map[string]map[string]Spread{}, Failed: map[string]int64{}}
	code := 0
	traceArg, suffix := "0", ".json"
	if traced {
		traceArg, suffix = "1", ".trace.json"
	}
	// Passes outside, workloads inside: a workload's runs are then a whole
	// pass apart, so a slow spell of the machine widens their spread (which
	// -compare reads as unresolved) instead of shifting all of them at once.
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < runs; i++ {
		for _, w := range workloadSpecs {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", traceArg)
			cmd.Stderr = os.Stderr
			if i == runs-1 {
				cmd.Stdout = os.Stdout // show the last pass's tables
			}
			// The child has its own watchdog; this one covers a child too
			// wedged to run it.
			if err := cmd.Start(); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			kill := time.AfterFunc(175*time.Second, func() { _ = cmd.Process.Kill() }) //itcvet:allow wallclock -- the watchdog bounds real elapsed time
			err := cmd.Wait()
			kill.Stop()
			var rep Report
			if rerr := readJSONFile(filepath.Join(outDir, w.Name+suffix), &rep); err != nil || rerr != nil || !rep.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s run %d failed (exit: %v, report: %v)\n", w.Name, i+1, err, rerr)
				sum.Failed[w.Name]++
				code = 1
				continue
			}
			sum.Failed[w.Name] += rep.Failed
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for _, group := range []map[string]Metric{rep.Metrics, rep.Detail} {
				for _, k := range sortedKeys(group) {
					values[w.Name][k] = append(values[w.Name][k], group[k].Value)
					units[k] = group[k].Unit
				}
			}
		}
	}
	for name, byMetric := range values {
		sum.Workloads[name] = map[string]Spread{}
		for k, v := range byMetric {
			sum.Workloads[name][k] = spreadOf(v, units[k])
		}
	}
	if err := writeJSONFile(outPath, sum); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", outPath)
	return code
}
