package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"itcfs/internal/harness"
)

var update = flag.Bool("update", false, "rewrite golden files")

// wallClockLine is the one line per experiment that reports real time.
var wallClockLine = regexp.MustCompile(`(?m)^\s+\(\d+\.\ds wall clock\)\n`)

// itcbench runs the command in-process and returns its exit code and output.
func itcbench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestQuickSuiteGolden pins everything `itcbench -quick` prints — every table
// of E1–E16 at the scaled-down sizes — apart from its wall-clock lines. All
// of it is simulated, so any byte that moves is a behaviour change in the
// system or the harness. Run with -update to re-record after an intended one.
func TestQuickSuiteGolden(t *testing.T) {
	code, stdout, stderr := itcbench("-quick")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	got := wallClockLine.ReplaceAllString(stdout, "")
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("itcbench -quick diverged from %s:\n%s", path, lineDiff(got, string(want)))
	}
}

// lineDiff says where got parts from want: how many lines differ and the
// first few of them with their line numbers, rather than both documents in
// full.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(past the end)"
	}
	var b strings.Builder
	differ := 0
	for i := 0; i < max(len(g), len(w)); i++ {
		if at(g, i) == at(w, i) {
			continue
		}
		if differ++; differ <= 5 {
			fmt.Fprintf(&b, "line %d:\n  got:  %s\n  want: %s\n", i+1, at(g, i), at(w, i))
		}
	}
	fmt.Fprintf(&b, "differing lines: %d", differ)
	return b.String()
}

// TestE15ExportsDeterministic drives the telemetry exports through the real
// CLI surface: two same-seed runs must write byte-identical dashboards,
// flight recordings and series, in both series formats.
func TestE15ExportsDeterministic(t *testing.T) {
	export := func(series string) (timeline, data []byte) {
		dir := t.TempDir()
		tl, sr := filepath.Join(dir, "timeline.txt"), filepath.Join(dir, series)
		if code, _, stderr := itcbench("-quick", "-run", "E15", "-timeline-out", tl, "-series-out", sr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		read := func(path string) []byte {
			b, err := os.ReadFile(path)
			if err != nil || len(b) == 0 {
				t.Fatalf("%s: %d bytes, %v", path, len(b), err)
			}
			return b
		}
		return read(tl), read(sr)
	}
	for _, series := range []string{"series.csv", "series.json"} {
		t1, s1 := export(series)
		t2, s2 := export(series)
		if !bytes.Equal(t1, t2) {
			t.Errorf("timeline differs between two same-seed runs")
		}
		if !bytes.Equal(s1, s2) {
			t.Errorf("%s differs between two same-seed runs", series)
		}
	}
}

// TestBenchExportsParse runs the two simulator benches at a small population
// and checks that what -scale-out and -obs-out write reads back into the
// types that BENCH_scale.json and BENCH_obs.json are committed as.
func TestBenchExportsParse(t *testing.T) {
	dir := t.TempDir()
	read := func(into any, args ...string) {
		t.Helper()
		path := args[len(args)-1]
		if code, _, stderr := itcbench(args...); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	var sb harness.ScaleBench
	read(&sb, "-run", "E14", "-clients", "200", "-quick", "-scale-out", filepath.Join(dir, "scale.json"))
	if !sb.Quick || len(sb.Points) != 1 || sb.Points[0].Clients != 200 || sb.Points[0].ClientHours <= 0 {
		t.Errorf("scale bench = %+v", sb)
	}
	var ob harness.ObsBench
	read(&ob, "-run", "E17", "-clients", "200", "-obs-out", filepath.Join(dir, "obs.json"))
	if len(ob.Points) != 1 || ob.Points[0].Clients != 200 || len(ob.Points[0].Legs) != 3 || ob.Breach == nil {
		t.Errorf("obs bench = %+v", ob)
	}
}

// TestExportWithoutItsExperiment pins the messages and exit code for an
// export flag whose experiment was not run, and for a bad -clients entry.
func TestExportWithoutItsExperiment(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "none", "-timeline"}, "timeline: no E15 result (run with -run E15, and check it succeeded)\n"},
		{[]string{"-run", "none", "-series-out", out}, "timeline: no E15 result (run with -run E15, and check it succeeded)\n"},
		{[]string{"-run", "none", "-scale-out", out}, "scale-out: no scale bench result (run with -run SCALE or -clients, and check it succeeded)\n"},
		{[]string{"-run", "none", "-obs-out", out}, "obs-out: no observability bench result (run with -run E17, and check it succeeded)\n"},
		{[]string{"-clients", "10,x"}, "SCALE: bad -clients entry \"x\"\n"},
		{[]string{"-run", "E17", "-clients", "0"}, "E17: bad -clients entry \"0\"\n"},
	} {
		code, _, stderr := itcbench(tc.args...)
		if code != 1 || stderr != tc.want {
			t.Errorf("%v: exit %d, stderr %q; want 1, %q", tc.args, code, stderr, tc.want)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%v: wrote %s anyway", tc.args, out)
		}
	}
}
