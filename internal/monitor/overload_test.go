package monitor

import (
	"testing"
	"time"

	"itcfs"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// overloadRig wires a two-server cell to a hand-driven sampler: the test
// chooses each window's utilization and per-volume ops directly, so the
// detector's window math is exercised without running a workload.
type overloadRig struct {
	cell       *itcfs.Cell
	adv        *Advisor
	s          *trace.Sampler
	volA, volB uint32
	cpu        [2]int64
	ops        map[uint32]*int64
	at         sim.Time
}

const rigCadence = 30 * time.Second

func newOverloadRig(t *testing.T) *overloadRig {
	t.Helper()
	cell := itcfs.NewCell(itcfs.CellConfig{Clusters: 2})
	rig := &overloadRig{cell: cell, adv: New(cell, DefaultConfig()), ops: map[uint32]*int64{}}
	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		// Two user volumes, both hosted on server0.
		if rig.volA, err = admin.NewUserAt(p, "ua", "pw", 0, ""); err != nil {
			return
		}
		rig.volB, err = admin.NewUserAt(p, "ub", "pw", 0, "")
	})
	if err != nil {
		t.Fatalf("rig: %v", err)
	}
	rig.s = trace.NewSampler(nil, rigCadence)
	for i, srv := range cell.Servers {
		i, name := i, srv.Vice.Name()
		rig.s.AddCumulative(trace.ServerCPUSeries(name), func() int64 { return rig.cpu[i] })
	}
	for _, vol := range []uint32{rig.volA, rig.volB} {
		n := new(int64)
		rig.ops[vol] = n
		rig.s.AddCumulative(trace.VolOpsMetric(vol), func() int64 { return *n })
	}
	rig.at = cell.Now()
	return rig
}

// window feeds one sampling round: per-server utilizations (0..1) and ops on
// the two server0 volumes.
func (r *overloadRig) window(u0, u1 float64, opsA, opsB int64) {
	r.cpu[0] += int64(u0 * float64(rigCadence))
	r.cpu[1] += int64(u1 * float64(rigCadence))
	*r.ops[r.volA] += opsA
	*r.ops[r.volB] += opsB
	r.at = r.at.Add(rigCadence)
	r.s.Sample(r.at)
}

func TestDetectOverloadSustained(t *testing.T) {
	rig := newOverloadRig(t)
	start := rig.at
	// Three calm windows, then five saturated ones running to the end.
	for i := 0; i < 3; i++ {
		rig.window(0.30, 0.10, 10, 10)
	}
	for i := 0; i < 5; i++ {
		rig.window(0.95, 0.15, 200, 40)
	}
	findings := rig.adv.DetectOverload(rig.s, DefaultOverloadConfig())
	if len(findings) != 1 {
		t.Fatalf("findings = %+v, want exactly one", findings)
	}
	hv := findings[0]
	if hv.Server != "server0" {
		t.Errorf("Server = %s", hv.Server)
	}
	if wantOnset := start.Add(4 * rigCadence); hv.Onset != wantOnset {
		t.Errorf("Onset = %v, want %v (end of the first saturated window)", hv.Onset, wantOnset)
	}
	if hv.Windows != 5 {
		t.Errorf("Windows = %d, want 5", hv.Windows)
	}
	if hv.PeakUtil < 0.90 || hv.MeanUtil < 0.90 {
		t.Errorf("PeakUtil = %.2f MeanUtil = %.2f, want ≈0.95", hv.PeakUtil, hv.MeanUtil)
	}
	if hv.Volume != rig.volA || hv.VolumeOps != 1000 {
		t.Errorf("Volume = %d ops %d, want %d ops 1000", hv.Volume, hv.VolumeOps, rig.volA)
	}
	if hv.To != "server1" {
		t.Errorf("To = %s, want server1", hv.To)
	}
	if hv.Reason == "" {
		t.Error("empty Reason")
	}
}

// TestDetectOverloadSubsided: an overload that already ended must not
// re-fire — the run has to extend to the end of the series.
func TestDetectOverloadSubsided(t *testing.T) {
	rig := newOverloadRig(t)
	for i := 0; i < 2; i++ {
		rig.window(0.30, 0.10, 10, 10)
	}
	for i := 0; i < 5; i++ {
		rig.window(0.95, 0.15, 200, 40)
	}
	for i := 0; i < 3; i++ {
		rig.window(0.40, 0.10, 10, 10)
	}
	if findings := rig.adv.DetectOverload(rig.s, DefaultOverloadConfig()); len(findings) != 0 {
		t.Errorf("subsided overload still reported: %+v", findings)
	}
}

// TestDetectOverloadDebounce: fewer than MinWindows hot windows is a spike,
// not an overload.
func TestDetectOverloadDebounce(t *testing.T) {
	rig := newOverloadRig(t)
	for i := 0; i < 6; i++ {
		rig.window(0.30, 0.10, 10, 10)
	}
	rig.window(0.95, 0.10, 100, 10)
	rig.window(0.95, 0.10, 100, 10)
	if findings := rig.adv.DetectOverload(rig.s, DefaultOverloadConfig()); len(findings) != 0 {
		t.Errorf("two-window spike reported with MinWindows=3: %+v", findings)
	}
	// One more hot window crosses the debounce threshold.
	rig.window(0.95, 0.10, 100, 10)
	if findings := rig.adv.DetectOverload(rig.s, DefaultOverloadConfig()); len(findings) != 1 {
		t.Errorf("three-window overload not reported: %+v", findings)
	}
}

// TestDetectOverloadTieBreak: equal sampled ops attribute to the lower
// volume ID, deterministically.
func TestDetectOverloadTieBreak(t *testing.T) {
	rig := newOverloadRig(t)
	for i := 0; i < 4; i++ {
		rig.window(0.95, 0.10, 50, 50)
	}
	findings := rig.adv.DetectOverload(rig.s, DefaultOverloadConfig())
	if len(findings) != 1 {
		t.Fatalf("findings = %+v", findings)
	}
	wantVol := rig.volA
	if rig.volB < wantVol {
		wantVol = rig.volB
	}
	if findings[0].Volume != wantVol {
		t.Errorf("tie broke to volume %d, want lowest ID %d", findings[0].Volume, wantVol)
	}
}

// TestDetectOverloadNilSampler: detection without telemetry yields nothing.
func TestDetectOverloadNilSampler(t *testing.T) {
	cell := itcfs.NewCell(itcfs.CellConfig{Clusters: 1})
	adv := New(cell, DefaultConfig())
	if findings := adv.DetectOverload(nil, DefaultOverloadConfig()); findings != nil {
		t.Errorf("nil sampler produced findings: %+v", findings)
	}
}
