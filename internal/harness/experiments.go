package harness

import (
	"fmt"
	"time"

	"itcfs"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/workload"
)

// E1Config sizes the call-mix experiment.
type E1Config struct {
	Load    LoadConfig
	Warm    time.Duration
	Measure time.Duration
}

// DefaultE1 returns the standard configuration: the paper's operating point
// of 20 workstations on one prototype server.
func DefaultE1() E1Config {
	return E1Config{
		Load:    DefaultLoad(itcfs.Prototype),
		Warm:    30 * time.Minute,
		Measure: 2 * time.Hour,
	}
}

// E1CallMix reproduces the histogram of calls received by servers in actual
// use (§5.2): cache-validity checks 65%, file status 27%, fetch 4%,
// store 2% — more than 98% of all calls.
func E1CallMix(cfg E1Config) (*Report, error) {
	lc, err := buildLoadedCell(cfg.Load)
	if err != nil {
		return nil, err
	}
	if err := lc.drive(cfg.Load, cfg.Warm, cfg.Measure, nil); err != nil {
		return nil, err
	}
	mix, total := lc.callMix()
	r := newReport("E1", "Histogram of calls received by servers",
		"validity checks 65%, status 27%, fetch 4%, store 2% (>98% of calls)",
		"call", "paper", "measured")
	paper := map[string]string{
		"TestValid (cache validity)": "65%",
		"GetFileStat (status)":       "27%",
		"Fetch":                      "4%",
		"Store":                      "2%",
	}
	for _, name := range sortedKeys(mix) {
		p := paper[name]
		if p == "" {
			p = "—"
		}
		r.addRow(name, p, pct(mix[name]))
	}
	r.row("total calls", text("—"), count("total", total))
	r.Metrics["validate"] = mix["TestValid (cache validity)"]
	r.Metrics["status"] = mix["GetFileStat (status)"]
	r.Metrics["fetch"] = mix["Fetch"]
	r.Metrics["store"] = mix["Store"]
	r.Metrics["top4"] = r.Metrics["validate"] + r.Metrics["status"] + r.Metrics["fetch"] + r.Metrics["store"]
	return r, nil
}

// E2Config sizes the utilization experiment.
type E2Config struct {
	Load       LoadConfig
	Warm       time.Duration
	Measure    time.Duration
	PeakWindow time.Duration
}

// DefaultE2 approximates the paper's deployment: 6 cluster servers with 20
// workstations each (120 total), measured over a working day. The measure
// interval is shorter than 8 hours by default; cmd/itcbench -full runs the
// full day.
func DefaultE2() E2Config {
	load := DefaultLoad(itcfs.Prototype)
	load.Clusters = 6
	load.UsersPer = 20
	load.ReplicateSys = true
	return E2Config{
		Load:       load,
		Warm:       20 * time.Minute,
		Measure:    time.Hour,
		PeakWindow: 5 * time.Minute,
	}
}

// E2Utilization reproduces the server utilization measurements: CPU
// averaging ≈40% on the most heavily loaded servers, disk ≈14%, short-term
// peaks near 98% — the server CPU is the bottleneck.
func E2Utilization(cfg E2Config) (*Report, error) {
	lc, err := buildLoadedCell(cfg.Load)
	if err != nil {
		return nil, err
	}
	err = lc.drive(cfg.Load, cfg.Warm, cfg.Measure, func() {
		lc.cell.StartSampling(cfg.PeakWindow, cfg.Measure)
	})
	if err != nil {
		return nil, err
	}

	r := newReport("E2", "Server CPU and disk utilization",
		"CPU ≈40% avg on busiest servers (peaks to 98%), disk ≈14%; CPU is the bottleneck",
		"server", "CPU avg", "CPU peak (5 min)", "disk avg")
	var maxCPU, maxDisk, maxPeak float64
	for _, s := range lc.cell.Servers {
		cpu, disk := lc.windowUtil(s)
		var peak float64
		for _, pt := range lc.cell.Sampler.Points(trace.ServerCPUSeries(s.Vice.Name())) {
			peak = max(peak, float64(pt.V)/float64(cfg.PeakWindow))
		}
		r.addRow(s.Vice.Name(), pct(cpu), pct(peak), pct(disk))
		if cpu > maxCPU {
			maxCPU = cpu
		}
		if disk > maxDisk {
			maxDisk = disk
		}
		if peak > maxPeak {
			maxPeak = peak
		}
	}
	r.Metrics["cpu_busiest"] = maxCPU
	r.Metrics["disk_busiest"] = maxDisk
	r.Metrics["cpu_peak"] = maxPeak
	r.Metrics["cpu_over_disk"] = maxCPU / maxDisk
	return r, nil
}

// E3Config sizes the hit-ratio experiment.
type E3Config struct {
	Load    LoadConfig
	Warm    time.Duration
	Measure time.Duration
}

// DefaultE3 returns the standard configuration.
func DefaultE3() E3Config {
	return E3Config{
		Load:    DefaultLoad(itcfs.Prototype),
		Warm:    30 * time.Minute,
		Measure: time.Hour,
	}
}

// E3HitRatio reproduces "an average cache hit ratio of over 80% during
// actual use".
func E3HitRatio(cfg E3Config) (*Report, error) {
	lc, err := buildLoadedCell(cfg.Load)
	if err != nil {
		return nil, err
	}
	if err := lc.drive(cfg.Load, cfg.Warm, cfg.Measure, nil); err != nil {
		return nil, err
	}
	total := lc.aggregateStats()
	r := newReport("E3", "Workstation cache hit ratio",
		"average cache hit ratio over 80% during actual use",
		"metric", "paper", "measured")
	r.row("hit ratio", text(">80%"), share("hit_ratio", total.HitRatio()))
	r.row("opens", text("—"), count("opens", total.Opens))
	r.row("whole-file fetches", text("—"), count("", total.Fetches))
	r.row("bytes fetched", text("—"), count("", total.BytesFetched))
	return r, nil
}

// E4Config sizes the five-phase benchmark comparison.
type E4Config struct {
	Mode   itcfs.Mode
	Andrew workload.AndrewConfig
}

// DefaultE4 returns the calibrated configuration.
func DefaultE4() E4Config {
	return E4Config{Mode: itcfs.Prototype, Andrew: workload.DefaultAndrew()}
}

// E4AndrewBenchmark reproduces the controlled experiment of §5.2: the
// five-phase benchmark over ~70 files takes about 1000 seconds with all
// files local, and about 80% longer when every file comes from an unloaded
// Vice server.
func E4AndrewBenchmark(cfg E4Config) (*Report, error) {
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: cfg.Mode, Clusters: 1})
	err := provision(cell, "bench")
	if err != nil {
		return nil, err
	}
	var local, remote, warm workload.PhaseTimes
	// Local run: source and target both on the workstation's own disk.
	_, err = station(cell, 0, "bench-local", "bench", func(p *sim.Proc, ws *itcfs.Workstation) (err error) {
		if _, err = workload.GenerateTree(p, ws.FS, "/src", cfg.Andrew); err != nil {
			return err
		}
		local, err = workload.RunAndrew(p, ws.FS, "/src", "/dst", cfg.Andrew)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("local run: %w", err)
	}
	if _, err := andrewTree(cell, "bench-setup", cfg.Andrew); err != nil {
		return nil, fmt.Errorf("remote tree: %w", err)
	}
	// Remote run: a fresh workstation; every file comes from the unloaded
	// server.
	remoteWS, err := station(cell, 0, "bench-remote", "bench", func(p *sim.Proc, ws *itcfs.Workstation) (err error) {
		remote, err = workload.RunAndrew(p, ws.FS, andrewSrc, "/vice/usr/bench/dst", cfg.Andrew)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("remote run: %w", err)
	}
	// Warm run: the same workstation repeats the benchmark (fresh target)
	// with the source tree already cached. In revised mode callbacks make
	// the cached reads free; the prototype still validates each one.
	err = cell.Do(func(p *sim.Proc) (err error) {
		warm, err = workload.RunAndrew(p, remoteWS.FS, andrewSrc, "/vice/usr/bench/dst2", cfg.Andrew)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("warm run: %w", err)
	}

	r := newReport("E4", "Five-phase benchmark, local vs all-remote",
		"≈1000 s local on a Sun; ≈80% longer with all files from an unloaded server",
		"phase", "local", "remote (cold)", "remote/local", "remote (warm cache)")
	lp, rp, wp := local.Phases(), remote.Phases(), warm.Phases()
	for i := range lp {
		ratio := float64(rp[i].D) / float64(lp[i].D)
		r.addRow(lp[i].Name, secs(lp[i].D), secs(rp[i].D), fmt.Sprintf("%.2fx", ratio), secs(wp[i].D))
	}
	overall := float64(remote.Total()) / float64(local.Total())
	r.row("Total", seconds("local_s", local.Total()), seconds("remote_s", remote.Total()),
		float("", "%.2fx", overall), seconds("warm_s", warm.Total()))
	r.Metrics["overhead"] = overall - 1
	r.Metrics["warm_overhead"] = float64(warm.Total())/float64(local.Total()) - 1
	return r, nil
}

// E5Config sizes the scalability sweep.
type E5Config struct {
	Mode   itcfs.Mode
	Andrew workload.AndrewConfig
	Drive  workload.Config
	LoadWS []int // concurrent load workstations per sweep point
}

// DefaultE5 sweeps the client/server ratio through the paper's operating
// point of 20.
func DefaultE5() E5Config {
	drive := workload.DefaultConfig(0)
	drive.Think = 4 * time.Second // "intense file system activity"
	return E5Config{
		Mode:   itcfs.Prototype,
		Andrew: workload.DefaultAndrew(),
		Drive:  drive,
		LoadWS: []int{0, 5, 10, 20, 40},
	}
}

// E5Scalability measures the five-phase benchmark against a server serving
// N active workstations: the paper operated at ≈20 workstations per server
// with performance comparable to timesharing, and observed that a few users
// with intense activity could drastically lower everyone's performance.
func E5Scalability(cfg E5Config) (*Report, error) {
	r := newReport("E5", "Benchmark time vs concurrent workstations per server",
		"≈20 WS/server ≈ timesharing; intense activity by a few degrades all",
		"load WS", "benchmark", "vs unloaded", "server CPU")
	var base time.Duration
	for _, n := range cfg.LoadWS {
		elapsed, cpu, err := e5Point(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("load %d: %w", n, err)
		}
		if n == cfg.LoadWS[0] {
			base = elapsed
		}
		r.row(fmt.Sprintf("%d", n), seconds(fmt.Sprintf("t_%d", n), elapsed),
			float(fmt.Sprintf("ratio_%d", n), "%.2fx", float64(elapsed)/float64(base)), share("", cpu))
	}
	return r, nil
}

// e5Point runs the benchmark with n load workstations on one server.
func e5Point(cfg E5Config, n int) (time.Duration, float64, error) {
	lc, ws, err := e5Cell(cfg, n)
	if err != nil {
		return 0, 0, err
	}
	return e5Run(cfg, lc, ws)
}

// e5Cell builds one sweep point's cell: n load users at their stations, and
// the benchmark's source tree installed from the station that will run it.
func e5Cell(cfg E5Config, n int) (*loadedCell, *itcfs.Workstation, error) {
	lc, err := buildLoadedCell(LoadConfig{Mode: cfg.Mode, Clusters: 1, UsersPer: n, Seed: 7, Drive: cfg.Drive})
	if err != nil {
		return nil, nil, err
	}
	if err := provision(lc.cell, "bench"); err != nil {
		return nil, nil, err
	}
	ws, err := andrewTree(lc.cell, "bench-ws", cfg.Andrew)
	return lc, ws, err
}

// e5Run measures the benchmark at ws while the load users run continuously
// around it. A load driver that fails stops offering load, so its first error
// fails the point: the row would claim more load than was applied.
func e5Run(cfg E5Config, lc *loadedCell, ws *itcfs.Workstation) (time.Duration, float64, error) {
	cell := lc.cell
	lc.resetResourceWindow(cell.Servers[0])
	var bench workload.PhaseTimes
	var benchErr, loadErr error
	done := false
	for i, name := range lc.users {
		drv := cfg.Drive
		drv.Seed = 500 + int64(i)
		u := workload.NewUser(name, "/usr/"+name, drv)
		cell.Kernel.Spawn("load-"+name, func(p *sim.Proc) {
			for !done {
				if err := u.Step(p, lc.ws[i].FS); err != nil {
					if loadErr == nil {
						loadErr = fmt.Errorf("driver %s: %w", name, err)
					}
					return
				}
			}
		})
	}
	cell.Kernel.Spawn("bench", func(p *sim.Proc) {
		bench, benchErr = workload.RunAndrew(p, ws.FS, andrewSrc, "/vice/usr/bench/dst", cfg.Andrew)
		done = true
	})
	cell.Kernel.Run()
	if loadErr != nil {
		return 0, 0, loadErr
	}
	if benchErr != nil {
		return 0, 0, benchErr
	}
	cpu, _ := lc.windowUtil(cell.Servers[0])
	return bench.Total(), cpu, nil
}
