package workload

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"itcfs/internal/prot"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
	"itcfs/internal/vice"
	"itcfs/internal/virtue"
)

// rig is a minimal direct-dispatch workstation (no simulated network), so
// driver logic is testable without kernel plumbing; virtual-time behaviour
// is covered by the harness tests.
func rig(t *testing.T) *virtue.FS {
	t.Helper()
	var clock int64
	clk := func() int64 { clock++; return clock }
	db := prot.NewDB()
	if err := db.Apply(prot.Mutation{Kind: prot.MutAddUser, Name: "u1", Key: secure.DeriveKey("u1", "pw")}); err != nil {
		t.Fatal(err)
	}
	srv, _, err := vice.Boot(vice.Config{Name: "s0", Mode: vice.Prototype, DB: db, Clock: clk}, "pw")
	if err != nil {
		t.Fatal(err)
	}
	root, _ := srv.Volume(1)
	acl := prot.NewACL()
	acl.Grant(prot.AnyUser, prot.RightsAll)
	if err := root.SetACL(root.Root(), acl); err != nil {
		t.Fatal(err)
	}

	local := unixfs.New(clk)
	var v *venus.Venus
	v = venus.New(venus.Config{
		Mode: vice.Prototype, Local: local, HomeServer: "s0",
		Connect: func(_ *sim.Proc, server string) (venus.Conn, error) {
			return directConn{srv: srv, user: v.User}, nil
		},
	})
	v.Login("u1")
	return virtue.New(local, v)
}

// directConn is the workstation's connection to the server, without a
// network. It dispatches each call straight into the server and, as the
// simulated carrier does, hands the request to the server and the reply to
// Venus in copies of their own, marked Owned, which each keeps as it is
// handed.
type directConn struct {
	srv  *vice.Server
	user func() string
}

func (c directConn) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	req.Body, req.Bulk, req.Owned = bytes.Clone(req.Body), bytes.Clone(req.Bulk), true
	resp := c.srv.Dispatcher().Dispatch(rpc.Ctx{User: c.user(), Proc: p}, req)
	resp.Body, resp.Bulk, resp.Owned = bytes.Clone(resp.Body), bytes.Clone(resp.Bulk), true
	return resp, nil
}

// mk prepares the directories the driver expects.
func mk(t *testing.T, fs *virtue.FS, dirs ...string) {
	t.Helper()
	for _, d := range dirs {
		cur := ""
		for _, part := range strings.Split(strings.TrimPrefix(d, "/"), "/") {
			cur += "/" + part
			if err := fs.Mkdir(nil, cur, 0o755); err != nil && !strings.Contains(err.Error(), "exists") {
				t.Fatalf("mkdir %s: %v", cur, err)
			}
		}
	}
}

func TestDriverRunsCleanly(t *testing.T) {
	fs := rig(t)
	mk(t, fs, "/vice/usr/u1", "/vice/unix/bin")
	cfg := DefaultConfig(7)
	cfg.Think = 0      // no kernel in this rig
	cfg.BurstEvery = 0 // one op per step, so the count below is exact
	cfg.UserFiles = 10
	cfg.SysFiles = 8
	u := NewUser("u1", "/usr/u1", cfg)
	if err := PopulateSystem(nil, fs, cfg, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if err := u.PopulateHome(nil, fs); err != nil {
		t.Fatal(err)
	}
	if err := u.Run(nil, fs, 200); err != nil {
		t.Fatalf("driver: %v", err)
	}
	if u.Ops() != 200 {
		t.Fatalf("ops = %d", u.Ops())
	}
	// The workload really hit the cache and the server.
	st := fs.Venus().Stats()
	if st.Opens == 0 || st.Validations == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDriverDeterministic(t *testing.T) {
	run := func() venus.Stats {
		fs := rig(t)
		mk(t, fs, "/vice/usr/u1", "/vice/unix/bin")
		cfg := DefaultConfig(99)
		cfg.Think = 0
		cfg.UserFiles = 10
		cfg.SysFiles = 8
		u := NewUser("u1", "/usr/u1", cfg)
		if err := PopulateSystem(nil, fs, cfg, rand.New(rand.NewSource(1))); err != nil {
			t.Fatal(err)
		}
		if err := u.PopulateHome(nil, fs); err != nil {
			t.Fatal(err)
		}
		if err := u.Run(nil, fs, 100); err != nil {
			t.Fatal(err)
		}
		return fs.Venus().Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged: %+v vs %+v", a, b)
	}
}

func TestMixWeightsRespected(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := mix{readUser: 1} // only reads
	for i := 0; i < 50; i++ {
		if k := m.pick(r); k != OpReadUser {
			t.Fatalf("pick = %v with read-only mix", k)
		}
	}
	m = mix{temp: 5}
	for i := 0; i < 50; i++ {
		if k := m.pick(r); k != OpTempFile {
			t.Fatalf("pick = %v with temp-only mix", k)
		}
	}
}

func TestGenerateTreeShape(t *testing.T) {
	fs := rig(t)
	cfg := DefaultAndrew()
	cfg.Files = 20
	cfg.Dirs = 3
	files, err := GenerateTree(nil, fs, "/src", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 20 {
		t.Fatalf("generated %d files", len(files))
	}
	for _, f := range files {
		st, err := fs.Stat(nil, f)
		if err != nil || st.Size == 0 {
			t.Fatalf("file %s: %+v %v", f, st, err)
		}
	}
	entries, err := fs.ReadDir(nil, "/src")
	if err != nil {
		t.Fatal(err)
	}
	dirs := 0
	for _, e := range entries {
		if e.IsDir {
			dirs++
		}
	}
	if dirs != 3 {
		t.Fatalf("dirs = %d", dirs)
	}
}

func TestAndrewPhasesProduceTarget(t *testing.T) {
	fs := rig(t)
	cfg := DefaultAndrew()
	cfg.Files = 12
	cfg.Dirs = 2
	// Shrink workstation costs: this rig has no virtual clock, so Sleep
	// must not be called — run with a kernel instead.
	k := sim.NewKernel()
	var pt PhaseTimes
	var runErr error
	k.Spawn("bench", func(p *sim.Proc) {
		if _, err := GenerateTree(p, fs, "/src", cfg); err != nil {
			runErr = err
			return
		}
		pt, runErr = RunAndrew(p, fs, "/src", "/dst", cfg)
	})
	k.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	// All phases took time; Make dominates (compilation).
	if pt.MakeDir <= 0 || pt.Copy <= 0 || pt.ScanDir <= 0 || pt.ReadAll <= 0 || pt.Make <= 0 {
		t.Fatalf("phases: %+v", pt)
	}
	if pt.Make < pt.Copy {
		t.Fatalf("Make (%v) should dominate Copy (%v)", pt.Make, pt.Copy)
	}
	// The copy really happened (file 000 lands in the source root, file 001
	// in sub0).
	got, err := fs.ReadFile(nil, "/dst/src000.c")
	if err != nil || len(got) == 0 {
		t.Fatalf("target copy: %d bytes, %v", len(got), err)
	}
	got, err = fs.ReadFile(nil, "/dst/sub0/src001.c")
	if err != nil || len(got) == 0 {
		t.Fatalf("target subdir copy: %d bytes, %v", len(got), err)
	}
	// The link output exists.
	if st, err := fs.Stat(nil, "/dst/a.out"); err != nil || st.Size == 0 {
		t.Fatalf("a.out: %+v %v", st, err)
	}
}

func TestAndrewCalibrationLocal(t *testing.T) {
	// The calibrated configuration lands the local run near the paper's
	// ≈1000 seconds (within a generous band; the *ratio* remote/local is
	// what the experiments must reproduce).
	fs := rig(t)
	cfg := DefaultAndrew()
	k := sim.NewKernel()
	var pt PhaseTimes
	var runErr error
	k.Spawn("bench", func(p *sim.Proc) {
		if _, err := GenerateTree(p, fs, "/src", cfg); err != nil {
			runErr = err
			return
		}
		pt, runErr = RunAndrew(p, fs, "/src", "/dst", cfg)
	})
	k.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	total := pt.Total()
	if total < 600*time.Second || total > 1500*time.Second {
		t.Fatalf("local Andrew total = %v, want ≈1000s", total)
	}
}
