package harness

import (
	"fmt"
	"math/rand"
	"time"

	"itcfs"
	"itcfs/internal/monitor"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// HotCellConfig shapes the two-cluster cell E15 and E17's breach leg share:
// two public volumes on server0 read from cluster 1, and background users in
// both clusters reading their own local homes.
type HotCellConfig struct {
	Seed int64
	// Cadence is the telemetry sampling window; Phase is how long each load
	// phase runs. The detector needs Detect.MinWindows full windows of
	// overload inside the hot phase, so Phase should be several times Cadence.
	Cadence time.Duration
	Phase   time.Duration
	// HotReaders and WarmReaders are cluster-1 stations hammering the two
	// public volumes hosted (initially) on server0; LightPerCluster stations
	// per cluster read their own local home volumes throughout.
	HotReaders      int
	WarmReaders     int
	LightPerCluster int
	Files           int // files per volume, read round-robin
	FileBytes       int
	// Per-group think times between reads; the hot group's shorter think is
	// what pushes server0 over its CPU ceiling in the hot phase.
	HotThink   time.Duration
	WarmThink  time.Duration
	LightThink time.Duration
	Detect     monitor.OverloadConfig
	// FlightEvents bounds the cell's flight-recorder ring.
	FlightEvents int
}

// hotCell is the provisioned cell: every station logged in, every volume
// populated, and a start stagger drawn for every station.
type hotCell struct {
	cell   *itcfs.Cell
	cfg    HotCellConfig
	hotVol uint32 // pub-hot's volume
	// The shared-volume readers all sit in cluster 1 — their load crosses the
	// backbone to server0, the misplacement a volume move repairs. bg[c][i]
	// is logged in as lightUsers[c][i].
	hot, warm  []*itcfs.Workstation
	bg         [2][]*itcfs.Workstation
	lightUsers [2][]string
	stagger    map[*itcfs.Workstation]time.Duration
	// loadErr is the first error any reader hit; callers check it after
	// each phase.
	loadErr error
}

// newHotCell provisions the cell, with tracing on under policy when it is
// non-nil. The two public volumes (owners pub-hot, pub-warm) stay on server0
// where CreateVolume put them; each background user's home is moved to their
// own cluster server, the standard placement.
func newHotCell(cfg HotCellConfig, policy *trace.SamplePolicy) (*hotCell, error) {
	cell := itcfs.NewCell(itcfs.CellConfig{
		Mode:         itcfs.Prototype,
		Clusters:     2,
		Metrics:      trace.NewRegistry(),
		FlightEvents: cfg.FlightEvents,
		Trace:        policy != nil,
		TracePolicy:  policy,
	})
	h := &hotCell{cell: cell, cfg: cfg, stagger: make(map[*itcfs.Workstation]time.Duration)}
	for c := range h.lightUsers {
		for i := 0; i < cfg.LightPerCluster; i++ {
			h.lightUsers[c] = append(h.lightUsers[c], fmt.Sprintf("bg%d-%d", c, i))
		}
	}
	err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) (err error) {
		if h.hotVol, err = admin.NewUserAt(p, "pub-hot", userPassword, 0, ""); err != nil {
			return err
		}
		if err := newUsers(p, admin, "", "pub-warm"); err != nil {
			return err
		}
		for c, users := range h.lightUsers {
			if err := newUsers(p, admin, cell.Servers[c].Vice.Name(), users...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("provisioning: %w", err)
	}

	// Stations: one login step each; an empty user means the cluster's
	// background users in order.
	addGroup := func(n, cluster int, prefix, user string) (group []*itcfs.Workstation, err error) {
		for i := 0; i < n; i++ {
			u := user
			if u == "" {
				u = h.lightUsers[cluster][i]
			}
			ws, err := station(cell, cluster, fmt.Sprintf("%s%d", prefix, i), u, nil)
			if err != nil {
				return nil, err
			}
			group = append(group, ws)
		}
		return group, nil
	}
	if h.hot, err = addGroup(cfg.HotReaders, 1, "hot-ws", "pub-hot"); err != nil {
		return nil, err
	}
	if h.warm, err = addGroup(cfg.WarmReaders, 1, "warm-ws", "pub-warm"); err != nil {
		return nil, err
	}
	for c := range h.bg {
		if h.bg[c], err = addGroup(cfg.LightPerCluster, c, fmt.Sprintf("bg%d-ws", c), ""); err != nil {
			return nil, err
		}
	}

	// Populate every volume from one logged-in station each.
	populate := func(ws *itcfs.Workstation, owner string) error {
		return cell.Do(func(p *sim.Proc) error {
			for f := 0; f < cfg.Files; f++ {
				body := make([]byte, cfg.FileBytes)
				for b := range body {
					body[b] = byte(f)
				}
				if err := ws.FS.WriteFile(p, fmt.Sprintf("/vice/usr/%s/f%d", owner, f), body); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := populate(h.hot[0], "pub-hot"); err != nil {
		return nil, err
	}
	if err := populate(h.warm[0], "pub-warm"); err != nil {
		return nil, err
	}
	for c := range h.bg {
		for i, ws := range h.bg[c] {
			if err := populate(ws, h.lightUsers[c][i]); err != nil {
				return nil, err
			}
		}
	}

	// Per-station start staggers, drawn deterministically from the seed in a
	// fixed order, so the stations never march in lockstep.
	rng := rand.New(rand.NewSource(cfg.Seed))
	draw := func(group []*itcfs.Workstation, think time.Duration) {
		for _, ws := range group {
			h.stagger[ws] = time.Duration(rng.Int63n(int64(think)))
		}
	}
	draw(h.hot, cfg.HotThink)
	draw(h.warm, cfg.WarmThink)
	for c := range h.bg {
		draw(h.bg[c], cfg.LightThink)
	}
	return h, nil
}

// reader spawns a process at ws that reads owner's files round-robin, one
// every think, until the given time.
func (h *hotCell) reader(ws *itcfs.Workstation, owner string, think time.Duration, until sim.Time) {
	h.cell.Kernel.Spawn("read-"+ws.Name, func(p *sim.Proc) {
		p.Sleep(h.stagger[ws])
		for f := 0; p.Now() < until; f++ {
			if _, err := ws.FS.ReadFile(p, fmt.Sprintf("/vice/usr/%s/f%d", owner, f%h.cfg.Files)); err != nil {
				if h.loadErr == nil {
					h.loadErr = fmt.Errorf("reader %s: %w", ws.Name, err)
				}
				return
			}
			p.Sleep(think)
		}
	})
}

// spawnShared starts the cluster-1 readers of the two public volumes.
func (h *hotCell) spawnShared(until sim.Time) {
	for _, ws := range h.hot {
		h.reader(ws, "pub-hot", h.cfg.HotThink, until)
	}
	for _, ws := range h.warm {
		h.reader(ws, "pub-warm", h.cfg.WarmThink, until)
	}
}

// spawnBackground starts every background user reading their own home.
func (h *hotCell) spawnBackground(until sim.Time) {
	for c := range h.bg {
		for i, ws := range h.bg[c] {
			h.reader(ws, h.lightUsers[c][i], h.cfg.LightThink, until)
		}
	}
}

// runUntil drives the cell to t — never Kernel.Run, which would drain the
// sampler's tick events straight through the horizon — and reports the first
// reader error so far.
func (h *hotCell) runUntil(t sim.Time) error {
	h.cell.Kernel.RunUntil(t)
	return h.loadErr
}
