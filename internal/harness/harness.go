// Package harness builds and runs the paper's evaluation (§5.2): it
// assembles cells, applies synthetic load in virtual time, collects server
// and network statistics, and renders each experiment as a table comparing
// the paper's reported numbers with the measured reproduction.
//
// The experiments are E1–E17 and SCALE, indexed in DESIGN.md §3: E1–E5
// reproduce the paper's measurements (harness.go, experiments.go), E6–E10 are
// the design ablations (ablations.go), E11 and E13–E17 exercise monitoring,
// tracing, scale, telemetry, replication and observability (one file each),
// and SCALE measures the simulator itself (scalebench.go). They share one
// vocabulary: provisioning steps (cell.go), the hot-volume and scale cells
// (hotcell.go, scalability.go), real-cost measurement (scalebench.go) and the
// Report row helpers below.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"itcfs"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/workload"
)

// Report is one experiment's outcome.
type Report struct {
	ID         string
	Title      string
	PaperClaim string
	Header     []string
	Rows       [][]string
	// Metrics carries machine-checkable numbers for tests and benches.
	Metrics map[string]float64
}

func newReport(id, title, claim string, header ...string) *Report {
	return &Report{ID: id, Title: title, PaperClaim: claim, Header: header,
		Metrics: make(map[string]float64)}
}

func (r *Report) addRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// An entry is one table cell that is also, when key is set, a metric: the
// text a reader sees and the number a test checks come from one value.
type entry struct {
	text, key string
	v         float64
}

// row adds a table row of entries after label and records their metrics.
func (r *Report) row(label string, entries ...entry) {
	row := []string{label}
	for _, e := range entries {
		row = append(row, e.text)
		if e.key != "" {
			r.Metrics[e.key] = e.v
		}
	}
	r.addRow(row...)
}

// text is an entry with no metric.
func text(s string) entry { return entry{text: s} }

// count is an integer entry.
func count[N int | int64 | uint64](key string, n N) entry {
	return entry{fmt.Sprint(n), key, float64(n)}
}

// share is a ratio shown as a percentage; the metric is the ratio.
func share(key string, x float64) entry { return entry{pct(x), key, x} }

// seconds is a duration shown in whole seconds; the metric is in seconds.
func seconds(key string, d time.Duration) entry { return entry{secs(d), key, d.Seconds()} }

// rounded is a duration shown rounded to unit; the metric is in (fractional)
// milliseconds whatever the unit.
func rounded(key string, d, unit time.Duration) entry {
	return entry{d.Round(unit).String(), key, float64(d) / float64(time.Millisecond)}
}

// millis is a duration shown rounded to the millisecond.
func millis(key string, d time.Duration) entry { return rounded(key, d, time.Millisecond) }

// float is a number shown in the given format.
func float(key, format string, v float64) entry { return entry{fmt.Sprintf(format, v), key, v} }

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(w, "paper: %s\n", r.PaperClaim)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(b.String(), " "))
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// secs formats a duration in whole seconds.
func secs(d time.Duration) string { return fmt.Sprintf("%.0f s", d.Seconds()) }

// loadedCell is a provisioned cell with system binaries and per-user home
// volumes, ready for synthetic load.
type loadedCell struct {
	cell  *itcfs.Cell
	users []string
	// ws[i] is user i's workstation; user i's home server is the cluster
	// server of ws[i]'s cluster.
	ws []*itcfs.Workstation
	// sysRoot is the Vice directory drivers read system binaries from: the
	// read-write volume, or its read-only replicated clone.
	sysRoot string
	marks   map[*itcfs.Server]windowMark
}

// LoadConfig sizes a loaded cell.
type LoadConfig struct {
	Mode     itcfs.Mode
	Clusters int
	UsersPer int // users (each with a workstation) per cluster
	Seed     int64
	Drive    workload.Config // per-user driver shape (Seed is overridden)
	// ReplicateSys releases the system-binary volume read-only onto every
	// other cluster server (§3.2). Multi-cluster experiments set it.
	ReplicateSys bool
}

// DefaultLoad returns the standard small configuration: one cluster of 20
// workstations on one server, the paper's operating point.
func DefaultLoad(mode itcfs.Mode) LoadConfig {
	return LoadConfig{
		Mode:     mode,
		Clusters: 1,
		UsersPer: 20,
		Seed:     1,
		Drive:    workload.DefaultConfig(0),
	}
}

// buildLoadedCell provisions the cell: system binaries in a shared volume,
// one user+volume+workstation per seat, every home populated and every
// user logged in at their station.
func buildLoadedCell(cfg LoadConfig) (*loadedCell, error) {
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: cfg.Mode, Clusters: cfg.Clusters})
	lc := &loadedCell{cell: cell, sysRoot: cfg.Drive.SysRoot, marks: make(map[*itcfs.Server]windowMark)}
	err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		sysVol, err := sysVolume(p, admin, cfg.Drive.SysRoot)
		if err != nil {
			return fmt.Errorf("system volume: %w", err)
		}
		opWS := cell.AddWorkstation(0, "op-console")
		if err := login(p, opWS, "operator"); err != nil {
			return err
		}
		r := rand.New(rand.NewSource(cfg.Seed))
		if err := workload.PopulateSystem(p, opWS.FS, cfg.Drive, r); err != nil {
			return err
		}
		if cfg.ReplicateSys {
			// Drivers read the released tree.
			if lc.sysRoot, err = release(p, admin, sysVol, cfg.Drive.SysRoot, cell.Servers[1:]); err != nil {
				return fmt.Errorf("replicate system volume: %w", err)
			}
		}
		for c := 0; c < cfg.Clusters; c++ {
			for u := 0; u < cfg.UsersPer; u++ {
				lc.users = append(lc.users, fmt.Sprintf("user%d-%d", c, u))
			}
			// Each home volume lives on its user's own cluster server.
			if err := newUsers(p, admin, cell.Servers[c].Vice.Name(), lc.users[c*cfg.UsersPer:]...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One workstation per user, logged in, home populated.
	for i, name := range lc.users {
		lc.ws = append(lc.ws, cell.AddWorkstation(i/cfg.UsersPer, "ws-"+name))
	}
	for i, name := range lc.users {
		drv := cfg.Drive
		drv.Seed = cfg.Seed + int64(i)
		drv.Think = 0
		u := workload.NewUser(name, "/usr/"+name, drv)
		err := cell.Do(func(p *sim.Proc) error {
			if err := login(p, lc.ws[i], name); err != nil {
				return err
			}
			if err := u.PopulateHome(p, lc.ws[i].FS); err != nil {
				return fmt.Errorf("populate %s: %w", name, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return lc, nil
}

// drive runs every user's driver concurrently for the given virtual duration
// (after a warm-up of the same shape), then returns. Venus stats are reset
// after warm-up so measurements cover only the steady state. atMeasureStart,
// when non-nil, is called at that boundary — the place to attach gauges, whose
// self-renewing tick events must not be scheduled before a kernel run that
// would drain them through idle time.
func (lc *loadedCell) drive(cfg LoadConfig, warm, measure time.Duration, atMeasureStart func()) error {
	var driveErr error
	run := func(until sim.Time) {
		for i, name := range lc.users {
			drv := cfg.Drive
			drv.Seed = cfg.Seed + 1000 + int64(i)
			drv.SysRoot = lc.sysRoot
			u := workload.NewUser(name, "/usr/"+name, drv)
			lc.cell.Kernel.Spawn("drive-"+name, func(p *sim.Proc) {
				if err := u.RunUntil(p, lc.ws[i].FS, until); err != nil && driveErr == nil {
					driveErr = fmt.Errorf("driver %s: %w", name, err)
				}
			})
		}
		lc.cell.Kernel.Run()
	}
	start := lc.cell.Now()
	if warm > 0 {
		run(start.Add(warm))
		if driveErr != nil {
			return driveErr
		}
	}
	for _, ws := range lc.ws {
		ws.Venus.ResetStats()
	}
	for _, s := range lc.cell.Servers {
		lc.resetResourceWindow(s)
	}
	if atMeasureStart != nil {
		atMeasureStart()
	}
	mid := lc.cell.Now()
	run(mid.Add(measure))
	return driveErr
}

// window bookkeeping: utilization and call counts over the measured
// interval only.
type windowMark struct {
	at    sim.Time
	cpu   time.Duration
	disk  time.Duration
	calls map[rpc.Op]int64
}

func (lc *loadedCell) resetResourceWindow(s *itcfs.Server) {
	lc.marks[s] = windowMark{
		at:    s.CPU.Kernel().Now(),
		cpu:   s.CPU.BusyTime(),
		disk:  s.Disk.BusyTime(),
		calls: s.Endpoint.CallCounts(),
	}
}

// windowUtil returns CPU and disk utilization since the last reset.
func (lc *loadedCell) windowUtil(s *itcfs.Server) (cpu, disk float64) {
	m, ok := lc.marks[s]
	if !ok {
		return s.CPU.Utilization(0), s.Disk.Utilization(0)
	}
	elapsed := s.CPU.Kernel().Now().Sub(m.at)
	if elapsed <= 0 {
		return 0, 0
	}
	return float64(s.CPU.BusyTime()-m.cpu) / float64(elapsed),
		float64(s.Disk.BusyTime()-m.disk) / float64(elapsed)
}

// aggregateStats sums Venus counters over all workstations.
func (lc *loadedCell) aggregateStats() itcfs.Stats {
	var total itcfs.Stats
	for _, ws := range lc.ws {
		s := ws.Venus.Stats()
		total.Opens += s.Opens
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Validations += s.Validations
		total.Fetches += s.Fetches
		total.Stores += s.Stores
		total.StatRPCs += s.StatRPCs
		total.OtherRPCs += s.OtherRPCs
		total.CallbackBreaks += s.CallbackBreaks
		total.Evictions += s.Evictions
		total.BytesFetched += s.BytesFetched
		total.BytesStored += s.BytesStored
	}
	return total
}

// callMix aggregates server histograms over the measured window into
// fractions of total calls, grouped by human-readable op name.
func (lc *loadedCell) callMix() (map[string]float64, int64) {
	counts := map[rpc.Op]int64{}
	var total int64
	for _, s := range lc.cell.Servers {
		base := map[rpc.Op]int64{}
		if m, ok := lc.marks[s]; ok && m.calls != nil {
			base = m.calls
		}
		for op, n := range s.Endpoint.CallCounts() {
			d := n - base[op]
			counts[op] += d
			total += d
		}
	}
	names := map[string]float64{}
	for op, n := range counts {
		if total > 0 {
			names[opName(op)] += float64(n) / float64(total)
		}
	}
	return names, total
}

func opName(op rpc.Op) string {
	switch uint16(op) {
	case proto.OpTestValid:
		return "TestValid (cache validity)"
	case proto.OpFetchStatus:
		return "GetFileStat (status)"
	case proto.OpFetch:
		return "Fetch"
	case proto.OpStore:
		return "Store"
	case proto.OpGetCustodian:
		return "GetCustodian"
	case proto.OpCreate, proto.OpMakeDir, proto.OpRemove, proto.OpRemoveDir,
		proto.OpRename, proto.OpSymlink, proto.OpLink, proto.OpSetACL, proto.OpGetACL:
		return "directory ops"
	default:
		return fmt.Sprintf("other (op %d)", op)
	}
}

// sortedKeys returns map keys ordered by descending value, ties broken by
// name: without the tie-break, equal-valued rows would keep the order the
// keys came out of the map in, and the table would shuffle run to run.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
