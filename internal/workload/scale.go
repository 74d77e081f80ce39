package workload

// Scalability workload (E14): many workstations hammering one shared pool
// of hot files. Reads follow a Zipf popularity curve, a small fraction of
// operations rewrite the file they picked — which makes the server break
// callbacks to every interested client — and each client periodically runs
// a TTL revalidation sweep. This is the mix where callback fan-out and
// revalidation round trips dominate server load, i.e. exactly what the
// batched BulkBreak/BulkTestValid plane is supposed to collapse.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"itcfs/internal/sim"
	"itcfs/internal/venus"
	"itcfs/internal/virtue"
)

// ScaleConfig shapes one client of the scalability mix.
type ScaleConfig struct {
	Seed    int64
	Root    string        // Vice directory holding the shared pool
	Stagger time.Duration // clients start uniformly inside this ramp
	Browse  int           // pool files each client reads once at start
	Ops     int           // main operations per client
}

// The pool and the parts of the mix every scale client shares.
const (
	sharedFiles = 120              // files in the pool
	scaleZipf   = 1.5              // popularity skew (s > 1)
	writers     = 1                // the first k clients are publishers
	burstEvery  = 10               // a publisher installs a burst every k main ops
	burstFiles  = 30               // files rewritten per install burst
	scaleMeanKB = 4                // mean rewrite size (exponential)
	browseThink = 2 * time.Minute  // mean pause between browse reads
	scaleThink  = 20 * time.Minute // mean pause between main ops (exponential)
	sweepEvery  = 10               // ops between TTL revalidation sweeps
)

// DefaultScale returns the standard E14 client configuration: a large
// read-mostly population against a shared pool. Each client browses the
// head of the tree once — building a wide cache footprint whose callback
// promises the periodic sweeps keep alive cheaply — then settles into
// re-reading a few hot files. A fixed pair of publishers periodically
// installs a batch of updated files (the "new system release" event), which
// breaks every cached copy at once: the publisher count deliberately does
// not scale with the population, so break fan-out grows linearly with
// clients while the update rate stays constant — the regime the paper
// worries about.
func DefaultScale(seed int64) ScaleConfig {
	return ScaleConfig{
		Seed:    seed,
		Root:    "/vice/usr/load/shared",
		Stagger: 10 * time.Hour,
		Browse:  12,
		Ops:     30,
	}
}

// sharedNames caches the pool's name table per root. The popularity loop
// names a pool file on every operation, and at tens of thousands of clients
// formatting the path per op was a top allocation site. Tables only grow;
// concurrent rebuilds are harmless (entries are identical, last store wins).
var sharedNames sync.Map // string root -> []string

func sharedNameTable(root string, n int) []string {
	if v, ok := sharedNames.Load(root); ok {
		if t := v.([]string); len(t) >= n {
			return t
		}
	}
	t := make([]string, n)
	for i := range t {
		t[i] = fmt.Sprintf("%s/s%03d", root, i)
	}
	sharedNames.Store(root, t)
	return t
}

// SharedFile names pool file i under root.
func SharedFile(root string, i int) string {
	if v, ok := sharedNames.Load(root); ok {
		if t := v.([]string); i < len(t) {
			return t[i]
		}
	}
	return fmt.Sprintf("%s/s%03d", root, i)
}

// PopulateShared creates the pool. Call it from a single workstation before
// starting the clients.
func PopulateShared(p *sim.Proc, fs *virtue.FS, cfg ScaleConfig, r *rand.Rand) error {
	if err := fs.Mkdir(p, cfg.Root, 0o755); err != nil {
		return fmt.Errorf("populate %s: %w", cfg.Root, err)
	}
	for i := 0; i < sharedFiles; i++ {
		n := 1 + int(r.ExpFloat64()*float64(scaleMeanKB)*1024)
		if err := fs.WriteFile(p, SharedFile(cfg.Root, i), randBytes(r, n)); err != nil {
			return err
		}
	}
	return nil
}

// ScaleUser is one client of the scalability mix. Each client owns a rand
// stream derived from (Seed, index), so a run's schedule depends only on
// the configuration.
type ScaleUser struct {
	cfg    ScaleConfig
	r      *rand.Rand
	zipf   *rand.Zipf
	names  []string // shared pool name table (see sharedNames)
	writer bool
	ops    int64
}

// NewScaleUser creates client number index.
func NewScaleUser(index int, cfg ScaleConfig) *ScaleUser {
	r := rand.New(rand.NewSource(cfg.Seed + 7919*int64(index+1)))
	return &ScaleUser{
		cfg:    cfg,
		r:      r,
		zipf:   rand.NewZipf(r, scaleZipf, 1, sharedFiles-1),
		names:  sharedNameTable(cfg.Root, sharedFiles),
		writer: index < writers,
	}
}

// Ops reports operations performed so far (browse reads included).
func (u *ScaleUser) Ops() int64 { return u.ops }

// Run performs the client's full schedule: a staggered start, one browse
// pass over the head of the pool, then cfg.Ops popularity-driven ops.
func (u *ScaleUser) Run(p *sim.Proc, fs *virtue.FS, v *venus.Venus) error {
	if u.cfg.Stagger > 0 {
		p.Sleep(time.Duration(u.r.Int63n(int64(u.cfg.Stagger))))
	}
	for i := 0; i < u.cfg.Browse && i < sharedFiles; i++ {
		p.Sleep(time.Duration(u.r.ExpFloat64() * float64(browseThink)))
		if _, err := fs.ReadFile(p, u.names[i]); err != nil {
			return fmt.Errorf("scale browse %d: %w", i, err)
		}
		u.maybeSweep(p, v)
	}
	for i := 1; i <= u.cfg.Ops; i++ {
		if err := u.Step(p, fs, v, i); err != nil {
			return err
		}
	}
	return nil
}

// Step performs main operation number i (1-based): think, then read a pool
// file picked by popularity — or, for a publisher on its burst schedule,
// install a burst of updated files (each store breaks callbacks to every
// client caching that file, so a burst is a callback storm).
func (u *ScaleUser) Step(p *sim.Proc, fs *virtue.FS, v *venus.Venus, i int) error {
	p.Sleep(time.Duration(u.r.ExpFloat64() * float64(scaleThink)))
	var err error
	if u.writer && i%burstEvery == 0 {
		// A release lands at the head of the pool — the same region every
		// client browsed and the popularity curve concentrates on, so the
		// storm hits nearly every cache.
		err = u.installBurst(p, fs, 0)
	} else {
		_, err = fs.ReadFile(p, u.names[int(u.zipf.Uint64())])
	}
	if err != nil {
		return fmt.Errorf("scale op %d: %w", i, err)
	}
	u.maybeSweep(p, v)
	return nil
}

// maybeSweep counts the operation and runs a TTL revalidation sweep every
// sweepEvery ops — the batched replacement for the per-open check-on-open
// traffic the prototype suffered, and what keeps a long-idle cache's
// promises alive.
func (u *ScaleUser) maybeSweep(p *sim.Proc, v *venus.Venus) {
	u.ops++
	if u.ops%sweepEvery == 0 {
		// Force: refresh every promise before its TTL lapses, so opens never
		// stall on a one-off validation. Best effort: a sweep that races a
		// crash just leaves entries to the per-open validation paths.
		_, _, _ = v.Revalidate(p, true)
	}
}

// installBurst rewrites burstFiles consecutive pool files concurrently, the
// way Venus flushes a batch of closed files when a publisher installs a new
// release. The stores overlap at the server, so the callback storms they
// trigger overlap too — the case the coalescing break path exists for.
func (u *ScaleUser) installBurst(p *sim.Proc, fs *virtue.FS, first int) error {
	k := p.Kernel()
	done := make([]*sim.Future[error], burstFiles)
	for j := 0; j < burstFiles; j++ {
		// Draw sizes and payloads on the client proc so the rand stream is
		// consumed in a fixed order regardless of store completion order.
		n := 1 + int(u.r.ExpFloat64()*float64(scaleMeanKB)*1024)
		data := randBytes(u.r, n)
		path := u.names[(first+j)%sharedFiles]
		f := sim.NewFuture[error](k)
		done[j] = f
		k.Spawn("install", func(wp *sim.Proc) {
			f.Set(fs.WriteFile(wp, path, data))
		})
	}
	var err error
	for _, f := range done {
		if werr := f.Wait(p); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}
