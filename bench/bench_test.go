package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var realWorkloads = []string{wlAndrewSmall, wlBulkStream, wlWarmReads, wlSharedChurn, wlMixedRW2C}

func miniRun(t *testing.T, name string, seed int64, traced bool) *Report {
	t.Helper()
	rep, err := runWorkload(runOpts{name: name, seed: seed, seconds: 0.01, traced: traced,
		tmp: t.TempDir(), sizes: miniSizes, setups: 1, skipLadder: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// A miniature run of every real-path workload must pass its own
// verification — per-op checks, pinned counts, cold read-back, crash
// recovery — with and without the interposers, and emit exactly the metric
// names BENCHMARK.json promises for that mode.
func TestMiniatureRunsVerify(t *testing.T) {
	for _, name := range realWorkloads {
		for _, traced := range []bool{false, true} {
			rep := miniRun(t, name, 1, traced)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d problems=%v",
					name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
			}
			want := endToEndSpecs
			if traced {
				want = perLayerSpecs
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%t: metric %s not emitted", name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, want %q", name, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// The op sequence is a function of the seed alone.
func TestSeedDeterminesOps(t *testing.T) {
	for _, name := range []string{wlAndrewSmall, wlSharedChurn} {
		a, b, c := miniRun(t, name, 7, false), miniRun(t, name, 7, false), miniRun(t, name, 8, false)
		// The hash covers setup plus however many rounds fit; compare runs at
		// equal op counts only (round counts depend on the machine's speed).
		if a.Rounds == b.Rounds && a.OpsHash != b.OpsHash {
			t.Errorf("%s: same seed, different op sequences: %s vs %s", name, a.OpsHash, b.OpsHash)
		}
		if a.Rounds == c.Rounds && a.OpsHash == c.OpsHash {
			t.Errorf("%s: different seeds, same op sequence %s", name, a.OpsHash)
		}
	}
}

func TestGeneratorsRepeatExactly(t *testing.T) {
	gen := func(name string, seed int64) uint64 {
		w, err := newWorkload(name, seed, miniSizes)
		if err != nil {
			t.Fatal(err)
		}
		// bulk_stream's generator needs no cell: drive it directly.
		bs := w.(*bulkStream)
		bs.order = bs.rng.Perm(bs.z.bulkFiles)
		bs.path, bs.version = make([]string, bs.z.bulkFiles), make([]uint32, bs.z.bulkFiles)
		r := &run{genSum: newSeqHash()}
		for i := 0; i < 20; i++ {
			w.prepare(r, i)
		}
		return r.genSum.h
	}
	if gen(wlBulkStream, 3) != gen(wlBulkStream, 3) {
		t.Error("same seed, different sequences")
	}
	if gen(wlBulkStream, 3) == gen(wlBulkStream, 4) {
		t.Error("different seeds, same sequence")
	}
}

// A run that costs more RPCs or disk bytes than its pin fails; at the pin or
// below it passes.
func TestExactCountPins(t *testing.T) {
	for _, c := range []struct {
		pin  pin
		want bool
	}{
		{pin{rpcsPerOp: 0.75, diskPerUserByte: 100}, true}, // shared_churn: store, status, fetch per four ops
		{pin{rpcsPerOp: 0.70, diskPerUserByte: 100}, false},
		{pin{rpcsPerOp: 0.75, diskPerUserByte: 1}, false}, // the log holds more than the payload
	} {
		z := miniSizes
		z.pins = map[string]pin{wlSharedChurn: c.pin}
		rep, err := runWorkload(runOpts{name: wlSharedChurn, seed: 1, seconds: 0.01,
			tmp: t.TempDir(), sizes: z, setups: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct != c.want {
			t.Errorf("pin %+v: correct=%t, want %t (problems: %v)", c.pin, rep.Correct, c.want, rep.Problems)
		}
	}
}

func TestSimCellMiniature(t *testing.T) {
	rep := miniRun(t, wlSimCell, 1, false)
	if !rep.Correct {
		t.Fatalf("sim_cell: %v", rep.Problems)
	}
	for _, m := range endToEndSpecs {
		if v := rep.Metrics[m.Name].Value; v <= 0 {
			t.Errorf("sim_cell: %s = %v, want > 0", m.Name, v)
		}
	}
}

func TestContentCheck(t *testing.T) {
	c := newContent(1, 8192)
	buf := append([]byte(nil), c.bytesOf(5, 3, 4096)...)
	if !c.check(buf, 5, 3, 4096, true) {
		t.Fatal("fresh content fails its own check")
	}
	for name, bad := range map[string]bool{
		"stale version": c.check(buf, 5, 4, 4096, false),
		"other file":    c.check(buf, 6, 3, 4096, false),
		"short":         c.check(buf[:4000], 5, 3, 4000, false),
	} {
		if bad {
			t.Errorf("%s accepted", name)
		}
	}
	buf[2000] ^= 1
	if !c.check(buf, 5, 3, 4096, false) {
		t.Error("stamp check looked at the body")
	}
	if c.check(buf, 5, 3, 4096, true) {
		t.Error("flipped body byte accepted by the full check")
	}
}

// Results round-trip through the one exported type that writes them.
func TestResultRoundTrip(t *testing.T) {
	rep := miniRun(t, wlSharedChurn, 1, false)
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeJSONFile(path, rep); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := readJSONFile(path, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Errorf("report changed in a round trip:\n%+v\n%+v", rep, &back)
	}
	// The driver's line: exactly four keys.
	line, err := json.Marshal(rep.Result)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line has keys %v", keys)
	}
}

// BENCHMARK.json is exactly what the metric tables say, and within the
// contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if err := checkBenchmarkFile(path); err != nil {
		t.Error(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := benchmarkFile()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range onDisk.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range onDisk.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound < 0 || m.Bound > 0.25 || (m.Better != lower && m.Better != higher) {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		hasSetup = hasSetup || (m.Name == mSetupS && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range onDisk.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	if n := len(onDisk.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(onDisk.EndToEnd) > 16 || len(onDisk.PerLayer) > 128 || len(raw) > 64<<10 {
		t.Error("too many metrics or too large a file")
	}
	if onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 {
		t.Errorf("run_seconds %d", onDisk.RunSeconds)
	}
}

func TestCompareVerdicts(t *testing.T) {
	ops := MetricSpec{Name: mOpsPerS, Better: higher, Bound: 0.10}
	sp := func(v ...float64) Spread {
		s := sortedF(v)
		return Spread{Median: medianF(v), Min: s[0], Max: s[len(s)-1], Values: v}
	}
	for _, c := range []struct {
		name string
		a, b Spread
		want string
	}{
		{"same", sp(100, 101, 102), sp(100, 101, 103), "ok"},
		{"slower", sp(100, 101, 102), sp(80, 81, 82), "worse"},
		{"noisy", sp(80, 100, 120), sp(85, 99, 118), "unresolved"},
		{"noisy but a clean win", sp(80, 100, 120), sp(130, 150, 170), "ok"},
	} {
		if got := verdict(c.a, c.b, ops); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	dir := t.TempDir()
	write := func(file string, v float64) string {
		s := Summary{Workloads: map[string]map[string]Spread{}}
		for _, w := range workloadSpecs {
			s.Workloads[w.Name] = map[string]Spread{}
			for _, m := range comparedSpecs {
				s.Workloads[w.Name][m.Name] = sp(v, v, v)
			}
		}
		path := filepath.Join(dir, file)
		if err := writeJSONFile(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, moved := write("a.json", 100), write("same.json", 100), write("moved.json", 150)
	var out bytes.Buffer
	if code := compareFiles(&out, []string{a, same}); code != 0 {
		t.Errorf("identical summaries: exit %d\n%s", code, out.String())
	}
	// Every value 50 % higher: worse for the lower-is-better metrics.
	if code := compareFiles(&out, []string{a, moved}); code == 0 {
		t.Error("a 50 % move on every metric exits 0")
	}
	// Alternating summaries pool per side: A = {100, 150}, B = {100, 150}.
	if code := compareFiles(&out, []string{a, same, moved, moved}); code != 0 {
		t.Errorf("two sides pooled from the same two summaries: exit %d\n%s", code, out.String())
	}
}
