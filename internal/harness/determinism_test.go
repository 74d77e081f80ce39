package harness

import (
	"bytes"
	"testing"

	"itcfs"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/workload"
)

// textRun executes a small traced Andrew benchmark and returns its exports:
// the Chrome trace of every span and the final metrics snapshot. Both must
// be replay-stable.
func textRun(t *testing.T, seed int64) (report, metrics []byte) {
	t.Helper()
	cell := itcfs.NewCell(itcfs.CellConfig{
		Mode:    itcfs.Revised,
		Trace:   true,
		Metrics: trace.NewRegistry(),
	})
	andrew := smallAndrew(seed)
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
	ws := cell.AddWorkstation(0, "ws-det")
	cell.Run(func(p *sim.Proc) {
		if err = ws.Login(p, "bench", "pw"); err != nil {
			return
		}
		if _, err = workload.GenerateTree(p, ws.FS, "/vice/usr/bench/src", andrew); err != nil {
			return
		}
		_, err = workload.RunAndrew(p, ws.FS, "/vice/usr/bench/src", "/vice/usr/bench/dst", andrew)
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep, met bytes.Buffer
	if err := cell.Tracer.ExportChrome(&rep); err != nil {
		t.Fatal(err)
	}
	cell.Metrics.WriteText(&met)
	return rep.Bytes(), met.Bytes()
}

// e14Text runs a small E14 sweep and returns the printed report table — the
// surface EXPERIMENTS.md quotes — plus the metrics map rendered through it.
func e14Text(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := DefaultE14()
	cfg.Seed = seed
	cfg.Scale.Seed = seed
	cfg.Clients = []int{10} // tiny population: determinism, not scaling, is under test
	rep, err := E14Scalability(cfg)
	if err != nil {
		t.Fatalf("E14 (seed %d): %v", seed, err)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	return buf.Bytes()
}

// TestE14Determinism re-runs the scalability experiment with one seed and
// demands byte-identical report tables: the coalescing flusher processes,
// the concurrent install bursts, and the per-client rand streams must all
// replay exactly. A different seed must move the table, or the check is
// vacuous.
func TestE14Determinism(t *testing.T) {
	a := e14Text(t, 14)
	b := e14Text(t, 14)
	if !bytes.Equal(a, b) {
		t.Errorf("same seed produced different E14 reports:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if len(a) < 200 {
		t.Errorf("E14 report suspiciously small (%d bytes)", len(a))
	}
	c := e14Text(t, 15)
	if bytes.Equal(a, c) {
		t.Error("different seeds produced byte-identical E14 reports; seed is not flowing")
	}
}

// TestTextExportDeterminism is the regression test the itcvet analyzers
// exist to defend: two in-process runs with the same seed must produce
// byte-identical Chrome traces and metrics snapshots. Any wall-clock
// leak, unseeded random draw, or map-iteration-ordered export shows up here
// as a diff.
func TestTextExportDeterminism(t *testing.T) {
	rep1, met1 := textRun(t, 7)
	rep2, met2 := textRun(t, 7)
	if !bytes.Equal(rep1, rep2) {
		t.Errorf("same seed produced different trace reports (%d vs %d bytes)", len(rep1), len(rep2))
	}
	if !bytes.Equal(met1, met2) {
		t.Errorf("same seed produced different metrics snapshots (%d vs %d bytes)", len(met1), len(met2))
	}
	if len(rep1) < 200 {
		t.Errorf("trace report suspiciously small (%d bytes): tracing not recording", len(rep1))
	}
	if len(met1) < 200 {
		t.Errorf("metrics snapshot suspiciously small (%d bytes): no counters flowed", len(met1))
	}
	// A different seed must actually move the outputs, or the equality
	// above is vacuously checking empty/constant exports.
	rep3, _ := textRun(t, 8)
	if bytes.Equal(rep1, rep3) {
		t.Error("different seeds produced byte-identical trace reports; seed is not flowing")
	}
}
