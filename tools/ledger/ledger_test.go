package main

import (
	"bytes"
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
	for _, want := range []string{"lines tree ", "lines tools ", "lines file tools/ledger/main.go", "exported ", "options   vice.Config", "options   cmd/itcfsd flags", "locks "} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("no %q line in:\n%s", want, first.String())
		}
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
	if got := structFields(f, "Config"); got != 3 {
		t.Errorf("structFields(Config) = %d, want 3", got)
	}
	if got := flagDefinitions(f); got != 2 {
		t.Errorf("flagDefinitions = %d, want 2 (-n, -s)", got)
	}
	// Config, A, B, Field, Method, K.
	if got := exportedNames(f); got != 6 {
		t.Errorf("exportedNames = %d, want 6", got)
	}
}
