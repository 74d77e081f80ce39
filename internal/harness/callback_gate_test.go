package harness

import (
	"testing"

	"itcfs"
	"itcfs/internal/sim"
	"itcfs/internal/workload"
)

// callbackTotals runs the Andrew mix in one mode — the tree installed from one
// workstation, the benchmark run from another, so updates land in directories
// a second workstation caches — and returns what the server's callback table
// counted.
func callbackTotals(t *testing.T, mode itcfs.Mode) (promised, breaks, breakRPCs int64, outstanding int) {
	t.Helper()
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: mode})
	andrew := smallAndrew(7)
	var err error
	cell.Run(func(p *sim.Proc) {
		var admin *itcfs.Admin
		if admin, err = cell.Admin(p, 0); err != nil {
			return
		}
		err = admin.NewUser(p, "bench", "pw", 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	installer := cell.AddWorkstation(0, "ws-install")
	runner := cell.AddWorkstation(0, "ws-run")
	cell.Run(func(p *sim.Proc) {
		if err = installer.Login(p, "bench", "pw"); err != nil {
			return
		}
		if _, err = workload.GenerateTree(p, installer.FS, "/vice/usr/bench/src", andrew); err != nil {
			return
		}
		if err = runner.Login(p, "bench", "pw"); err != nil {
			return
		}
		_, err = workload.RunAndrew(p, runner.FS, "/vice/usr/bench/src", "/vice/usr/bench/dst", andrew)
	})
	if err != nil {
		t.Fatal(err)
	}
	cb := cell.Servers[0].Vice.Callbacks()
	promised, breaks = cb.Stats()
	return promised, breaks, cb.BreakRPCs(), cb.Outstanding()
}

// TestPrototypeServerRunsNoCallbacks pins the gate the callback table now
// owns: handlers call Promise and Break in both modes, and a prototype-mode
// server's table ignores every one of them — no promise kept, no break
// counted, no callback RPC sent — while the same mix in revised mode uses all
// three.
func TestPrototypeServerRunsNoCallbacks(t *testing.T) {
	promised, breaks, rpcs, outstanding := callbackTotals(t, itcfs.Prototype)
	if promised != 0 || breaks != 0 || rpcs != 0 || outstanding != 0 {
		t.Fatalf("prototype server: %d promises (%d outstanding), %d breaks, %d break RPCs; want none",
			promised, outstanding, breaks, rpcs)
	}
	promised, breaks, rpcs, _ = callbackTotals(t, itcfs.Revised)
	if promised == 0 || breaks == 0 || rpcs == 0 {
		t.Fatalf("revised server: %d promises, %d breaks, %d break RPCs; want all three in use",
			promised, breaks, rpcs)
	}
}
