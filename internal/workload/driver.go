// Package workload generates file system load: the synthetic file-reference
// driver the paper's methodology builds on (Satyanarayanan, "A Synthetic
// Driver for File System Simulation", 1984 — reference [13]), and the
// five-phase source-tree benchmark of §5.2.
//
// The driver models the class-specific file properties of §4: system
// binaries are read by everyone and essentially never written; user files
// are read-mostly and written by their owner; temporary files live in the
// workstation's local space and never touch Vice. Popularity within a class
// follows a Zipf-like distribution, which is what produces realistic cache
// behaviour (a small working set absorbing most opens).
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"itcfs/internal/sim"
	"itcfs/internal/virtue"
)

// OpKind enumerates driver operations.
type OpKind int

// Driver operations.
const (
	OpReadUser  OpKind = iota // open-read-close a user file
	OpWriteUser               // open-write-close a user file
	OpStatUser                // stat a user file
	OpListDir                 // list the user's directory
	OpReadSys                 // open-read-close a system binary
	OpStatSys                 // stat a system binary
	OpTempFile                // create-write-read-delete a local temp file
	opKinds
)

// mix sets the relative weight of each operation. Zero-value weights drop
// the operation.
type mix struct {
	readUser, writeUser, statUser, listDir, readSys, statSys, temp int
}

// userMix approximates the measured usage profile behind §5.2's call
// histogram: opens dominate and are mostly reads, status inquiries are
// frequent (directory browsing), writes are rare.
var userMix = mix{
	readUser:  38,
	writeUser: 3,
	statUser:  20,
	listDir:   6,
	readSys:   24,
	statSys:   6,
	temp:      3,
}

func (m mix) weights() [opKinds]int {
	return [opKinds]int{m.readUser, m.writeUser, m.statUser, m.listDir, m.readSys, m.statSys, m.temp}
}

// pick selects an operation according to the weights.
func (m mix) pick(r *rand.Rand) OpKind {
	w := m.weights()
	total := 0
	for _, v := range w {
		total += v
	}
	if total == 0 {
		return OpReadUser
	}
	n := r.Intn(total)
	for k, v := range w {
		if n < v {
			return OpKind(k)
		}
		n -= v
	}
	return OpReadUser
}

// Config shapes a user's synthetic activity.
type Config struct {
	Seed      int64
	UserFiles int    // files in the user's home volume
	SysFiles  int    // shared system binaries
	SysRoot   string // Vice directory of system binaries (e.g. "/unix/bin")
	// Think is the mean pause between operations (exponential).
	Think time.Duration
	// Bursts: with probability 1/BurstEvery per step, the user fires
	// burstOps operations back to back (a compile, a directory sweep) —
	// the "intense file system activity by a few users" that produced the
	// paper's short-term 98% CPU peaks (§5.2). Zero disables bursts.
	BurstEvery int
}

// The shape every user's activity shares.
const (
	// userZipf is the popularity skew: higher = more concentrated working
	// set. s>1 required.
	userZipf = 1.4
	// userMeanKB controls the file size distribution (paper: >99% of files
	// are small; sizes here are a few KB with a long tail).
	userMeanKB = 4
	burstOps   = 120
)

// DefaultConfig returns the standard driver shape.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:       seed,
		UserFiles:  150,
		SysFiles:   60,
		SysRoot:    "/unix/bin",
		Think:      14 * time.Second,
		BurstEvery: 350,
	}
}

// User is one simulated person generating file references at a workstation.
type User struct {
	Name string
	Home string // Vice path of the home directory (e.g. "/usr/satya")
	cfg  Config
	r    *rand.Rand
	uz   *rand.Zipf // user-file popularity
	sz   *rand.Zipf // system-file popularity
	ops  int64
}

// NewUser creates a driver for one user.
func NewUser(name, home string, cfg Config) *User {
	r := rand.New(rand.NewSource(cfg.Seed))
	return &User{
		Name: name,
		Home: home,
		cfg:  cfg,
		r:    r,
		uz:   rand.NewZipf(r, userZipf, 1, uint64(cfg.UserFiles-1)),
		sz:   rand.NewZipf(r, userZipf, 1, uint64(cfg.SysFiles-1)),
	}
}

// Ops returns the number of operations performed.
func (u *User) Ops() int64 { return u.ops }

// FileSize draws a file size: mostly a few KB, occasionally much larger
// (the long tail of the 1981 file-size study the paper cites [12]).
func (u *User) FileSize() int {
	base := u.r.Intn(2*userMeanKB*1024) + 256
	if u.r.Intn(100) < 2 {
		base *= 20 // the rare big file
	}
	return base
}

func (u *User) userFile(i int) string { return fmt.Sprintf("%s/f%03d", u.Home, i) }
func (u *User) sysFile(i int) string  { return fmt.Sprintf("%s/bin%03d", u.cfg.SysRoot, i) }

// PopulateHome creates the user's files (run once before the measured
// interval). fs paths are workstation paths; the home directory must be
// mounted under /vice already.
func (u *User) PopulateHome(p *sim.Proc, fs *virtue.FS) error {
	for i := 0; i < u.cfg.UserFiles; i++ {
		data := randBytes(u.r, u.FileSize())
		if err := fs.WriteFile(p, "/vice"+u.userFile(i), data); err != nil {
			return fmt.Errorf("populate %s: %w", u.userFile(i), err)
		}
	}
	return nil
}

// PopulateSystem installs the shared binaries (run once per cell, by the
// operator).
func PopulateSystem(p *sim.Proc, fs *virtue.FS, cfg Config, r *rand.Rand) error {
	for i := 0; i < cfg.SysFiles; i++ {
		data := randBytes(r, 8*1024+r.Intn(32*1024))
		path := fmt.Sprintf("/vice%s/bin%03d", cfg.SysRoot, i)
		if err := fs.WriteFile(p, path, data); err != nil {
			return fmt.Errorf("populate %s: %w", path, err)
		}
	}
	return nil
}

// Step performs one operation, including the think-time pause. It may
// expand into a burst.
func (u *User) Step(p *sim.Proc, fs *virtue.FS) error {
	if u.cfg.Think > 0 {
		pause := time.Duration(u.r.ExpFloat64() * float64(u.cfg.Think))
		p.Sleep(pause)
	}
	if u.cfg.BurstEvery > 0 && u.r.Intn(u.cfg.BurstEvery) == 0 {
		for i := 0; i < burstOps; i++ {
			if err := u.one(p, fs); err != nil {
				return err
			}
		}
		return nil
	}
	return u.one(p, fs)
}

// one performs a single operation with no pause.
func (u *User) one(p *sim.Proc, fs *virtue.FS) error {
	u.ops++
	switch userMix.pick(u.r) {
	case OpReadUser:
		return u.readFile(p, fs, "/vice"+u.userFile(int(u.uz.Uint64())))
	case OpWriteUser:
		data := randBytes(u.r, u.FileSize())
		return fs.WriteFile(p, "/vice"+u.userFile(int(u.uz.Uint64())), data)
	case OpStatUser:
		// Status inquiries browse uniformly ("ls -l" touches cold files
		// too); reads concentrate on the Zipf working set. This split is
		// what makes GetFileStat a major call class in the prototype
		// histogram while the hit ratio stays high (§5.2).
		_, err := fs.Stat(p, "/vice"+u.userFile(u.r.Intn(u.cfg.UserFiles)))
		return err
	case OpListDir:
		_, err := fs.ReadDir(p, "/vice"+u.Home)
		return err
	case OpReadSys:
		return u.readFile(p, fs, "/vice"+u.sysFile(int(u.sz.Uint64())))
	case OpStatSys:
		_, err := fs.Stat(p, "/vice"+u.sysFile(u.r.Intn(u.cfg.SysFiles)))
		return err
	case OpTempFile:
		return u.tempFile(p, fs)
	}
	return nil
}

// Run performs n operations, stopping early on error.
func (u *User) Run(p *sim.Proc, fs *virtue.FS, n int) error {
	for i := 0; i < n; i++ {
		if err := u.Step(p, fs); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// RunUntil keeps generating operations until the virtual deadline.
func (u *User) RunUntil(p *sim.Proc, fs *virtue.FS, deadline sim.Time) error {
	for p.Now() < deadline {
		if err := u.Step(p, fs); err != nil {
			return err
		}
	}
	return nil
}

func (u *User) readFile(p *sim.Proc, fs *virtue.FS, path string) error {
	f, err := fs.Open(p, path, virtue.FlagRead)
	if err != nil {
		return err
	}
	defer f.Close(p)
	buf := make([]byte, 8192)
	off := int64(0)
	for {
		n, err := f.ReadAt(buf, off)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		off += int64(n)
	}
}

// tempFile exercises the local name space: intermediate compiler output
// belongs on the workstation, never in Vice (§3.1 class 2).
func (u *User) tempFile(p *sim.Proc, fs *virtue.FS) error {
	if err := fs.Local().MkdirAll("/tmp", 0o777, u.Name); err != nil {
		return err
	}
	path := fmt.Sprintf("/tmp/%s-%d", u.Name, u.ops)
	if err := fs.WriteFile(p, path, randBytes(u.r, 2048)); err != nil {
		return err
	}
	if _, err := fs.ReadFile(p, path); err != nil {
		return err
	}
	return fs.Remove(p, path)
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	// Cheap deterministic filler; contents are irrelevant, sizes matter.
	for i := 0; i < n; i += 7 {
		b[i] = byte(r.Intn(256))
	}
	return b
}
