package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The ledger of the repository itself, twice: a CHANGES.md table is only
// worth quoting if a second run prints the same bytes.
func TestLedgerIsByteIdenticalAcrossRuns(t *testing.T) {
	var first, second bytes.Buffer
	for _, out := range []*bytes.Buffer{&first, &second} {
		if err := ledger("../..", []string{"tools/ledger/main.go"}, out); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two runs differ:\n%s\n---\n%s", first.Bytes(), second.Bytes())
	}
	for _, want := range []string{"lines tree ", "lines tools ", "\ntests ", "lines file tools/ledger/main.go", "exported ", "\ntest-only ", "options   vice.Config", "options   cmd/itcfsd flags", "locks "} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("no %q line in:\n%s", want, first.String())
		}
	}
}

// The tests line counts the tree's _test.go files by lines tree's rule,
// leaving out bench/, tools/ and testdata as lines tree does.
func TestTestsLineCountsTheTreesTestFiles(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":                 "module m\n",
		"DESIGN.md":              "<!-- lockgraph:begin -->\n# itcvet lock-order graph: 0 locks, 0 edges\n",
		"a.go":                   "package a\n",
		"a_test.go":              "package a\n\n// A comment.\nfunc f() {}\n",
		"sub/b_test.go":          "package b\n",
		"sub/testdata/c_test.go": "package c\n",
		"bench/d_test.go":        "package d\n",
		"tools/e/e_test.go":      "package e\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := ledger(root, nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lines tree 1  #", "\ntests 3  #"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no %q in:\n%s", want, out.String())
		}
	}
}

// Every exported function or method of the tree that only tests call is in
// testdata/test_only.golden with the reason it stays exported, and every
// name there is one the scan still finds.
func TestTestOnlyNamesArePinned(t *testing.T) {
	var out bytes.Buffer
	if err := ledger("../..", nil, &out); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "test-only   "); ok {
			found[name] = true
		}
	}
	golden, err := os.ReadFile("testdata/test_only.golden")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, line := range strings.Split(string(golden), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s is pinned without a reason", name)
		}
		pinned[name] = true
	}
	for name := range found {
		if !pinned[name] {
			t.Errorf("%s: only tests call it; give it a caller, move it to an export_test.go, delete it, or pin it with a reason", name)
		}
	}
	for name := range pinned {
		if !found[name] {
			t.Errorf("%s is pinned but the scan no longer finds it: drop its line", name)
		}
	}
}

// The scan counts callers in the tree's non-test files and in bench/, and
// not in tests, tools/ or testdata; a declaration does not call itself.
func TestTestOnlyScan(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":                "module m\n",
		"DESIGN.md":             "<!-- lockgraph:begin -->\n# itcvet lock-order graph: 0 locks, 0 edges\n",
		"a/a.go":                "package a\n\ntype T struct{}\n\nfunc (T) Used() {}\nfunc (*T) Alone() {}\nfunc Bench() {}\nfunc Tool() {}\nfunc Fixture() {}\nfunc Tested() {}\nfunc inner() {}\n",
		"a/use.go":              "package a\n\nfunc use(t T) { t.Used() }\n",
		"a/a_test.go":           "package a\n\nfunc f(t *T) { Tested(); t.Alone() }\n",
		"bench/b.go":            "package main\n\nfunc main() { a.Bench() }\n",
		"bench/b_test.go":       "package main\n\nfunc g() { a.Tested() }\n",
		"tools/c/c.go":          "package main\n\nfunc main() { a.Tool() }\n",
		"a/testdata/fixture.go": "package x\n\nfunc h() { a.Fixture() }\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := ledger(root, nil, &out); err != nil {
		t.Fatal(err)
	}
	want := "test-only 4  # exported funcs and methods no non-test file of the tree or bench/ names\n" +
		"test-only   a.Fixture\ntest-only   a.T.Alone\ntest-only   a.Tested\ntest-only   a.Tool\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("want\n%sin:\n%s", want, out.String())
	}
}

// The options scan counts the exported fields of every exported struct
// type of a non-main package of the tree whose name ends in Config or
// Policy, one line per type, and the flags of the three commands; not a
// main package's, a test's, bench/'s, tools/' or a fixture's.
func TestOptionsScan(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":    "module m\n",
		"DESIGN.md": "<!-- lockgraph:begin -->\n# itcvet lock-order graph: 0 locks, 0 edges\n",
		"a/a.go": "package a\n\ntype Config struct {\n\tA, B int\n\tc    int\n}\n\n" +
			"type (\n\tRetryPolicy struct{ N int }\n\tEmptyConfig struct{}\n)\n\n" +
			"type hiddenConfig struct{ X int }\ntype ModeConfig int\ntype Settings struct{ Y int }\n\n" +
			"func f() { type LocalConfig struct{ Z int } }\n",
		"a/b.go":                "package a\n\ntype BConfig struct{ P, Q, R int }\n",
		"a/a_test.go":           "package a\n\ntype TestConfig struct{ T int }\n",
		"cmd/itcfs/main.go":     "package main\n\nimport \"flag\"\n\ntype MainConfig struct{ M int }\n\nvar v = flag.Bool(\"v\", false, \"\")\n",
		"cmd/other/main.go":     "package main\n\nimport \"flag\"\n\nvar w = flag.Bool(\"w\", false, \"\")\n",
		"bench/c.go":            "package c\n\ntype BenchConfig struct{ B int }\n",
		"tools/d/d.go":          "package d\n\ntype ToolConfig struct{ D int }\n",
		"a/testdata/fixture.go": "package x\n\ntype FixtureConfig struct{ F int }\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := ledger(root, nil, &out); err != nil {
		t.Fatal(err)
	}
	want := "options 7  # exported fields of the exported *Config and *Policy structs, and flags of the three commands\n" +
		"options   a.BConfig                                3\n" +
		"options   a.Config                                 2\n" +
		"options   a.EmptyConfig                            0\n" +
		"options   a.RetryPolicy                            1\n" +
		"options   cmd/itcfs flags                          1\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("want\n%sin:\n%s", want, out.String())
	}
}

func TestCodeLines(t *testing.T) {
	src := "// Package p.\npackage p\n\n/* a block\n   comment */\nvar s = `raw\n\nstring` // trailing\n\t// indented comment\nfunc f() {\n}\n"
	// package p; var s = `raw; string`; func f() {; }
	if got := codeLines([]byte(src)); got != 5 {
		t.Fatalf("codeLines = %d, want 5", got)
	}
}

func TestOptionsAndExportedCounts(t *testing.T) {
	src := `package main

import "flag"

type Config struct {
	A, B int
	c    bool
}

type hidden struct{ Field int }

func (hidden) Method() {}

const K, k = 1, 2

func run(args []string) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var n int
	fs.IntVar(&n, "n", 0, "")
	_ = fs.String("s", "", "")
	_ = fs.Lookup("s")
	_ = fs.Parse(args)
}
`
	f, err := parseSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := optionStructs(f)["Config"]; got != 2 {
		t.Errorf("optionStructs[Config] = %d, want 2 (A, B)", got)
	}
	if got := flagDefinitions(f); got != 2 {
		t.Errorf("flagDefinitions = %d, want 2 (-n, -s)", got)
	}
	// Config, A, B, Field, Method, K.
	if got := exportedNames(f); got != 6 {
		t.Errorf("exportedNames = %d, want 6", got)
	}
}
