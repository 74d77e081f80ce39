package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestVettoolEndToEnd is the acceptance test for the CI gate: it builds the
// real itcvet binary, then drives the real `go vet -vettool=` machinery over
// throwaway modules. A module seeded with one violation of each class must
// fail the vet run with the right diagnostic; a module using the sanctioned
// idioms (annotated wall-clock, seeded rand, locked access, sorted
// iteration) must pass clean.
func TestVettoolEndToEnd(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("exercises the unix vet pipeline")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}

	bin := filepath.Join(t.TempDir(), "itcvet")
	build := exec.Command(goTool, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building itcvet: %v\n%s", err, out)
	}

	vet := func(t *testing.T, files map[string]string) (string, error) {
		t.Helper()
		dir := t.TempDir()
		files["go.mod"] = "module fixture\n\ngo 1.22\n"
		for name, src := range files {
			path := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cmd := exec.Command(goTool, "vet", "-vettool="+bin, "./...")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	// Each seeded violation must fail CI with its analyzer's diagnostic.
	violations := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "simtime",
			src: `package p

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
			want: "[simtime]",
		},
		{
			name: "seedrand",
			src: `package p

import "math/rand"

func Jitter() int { return rand.Intn(100) }
`,
			want: "[seedrand]",
		},
		{
			name: "lockcheck",
			src: `package p

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (c *Counter) Bump() { c.n++ }
`,
			want: "[lockcheck]",
		},
		{
			name: "mapiter",
			src: `package p

import "strings"

func Dump(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}
`,
			want: "[mapiter]",
		},
		{
			name: "lockorder_cycle",
			src: `package p

import "sync"

type A struct {
	mu sync.Mutex
	n  int // guarded by mu
}

type B struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func One(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	a.mu.Unlock()
}

func Two(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
	b.mu.Unlock()
}
`,
			want: "[lockorder]",
		},
		{
			name: "lockorder_blocking",
			src: `package p

import "sync"

type Q struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func Wait(q *Q, ch chan int) {
	q.mu.Lock()
	q.n = <-ch
	q.mu.Unlock()
}
`,
			want: "[lockorder]",
		},
		{
			name: "durcheck",
			src: `package p

type Store struct{}

func (s *Store) Sync() error { return nil }

func Flush(s *Store) {
	_ = s.Sync()
}
`,
			want: "[durcheck]",
		},
		{
			name: "driftcheck_contract",
			src: `package p

import "sync"

type Bare struct {
	mu sync.Mutex
	n  int
}

func Bump(b *Bare) {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}
`,
			want: "[driftcheck]",
		},
	}
	for _, v := range violations {
		t.Run("flags_"+v.name, func(t *testing.T) {
			out, err := vet(t, map[string]string{"p.go": v.src})
			if err == nil {
				t.Fatalf("go vet passed on a %s violation; output:\n%s", v.name, out)
			}
			if !strings.Contains(out, v.want) {
				t.Fatalf("diagnostic missing %q:\n%s", v.want, out)
			}
		})
	}

	t.Run("flags_driftcheck_fuzz", func(t *testing.T) {
		out, err := vet(t, map[string]string{
			"ci.sh": "#!/bin/sh\ngo test ./...\n",
			"p.go":  "package p\n",
			"p_test.go": `package p

import "testing"

func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {})
}
`,
		})
		if err == nil {
			t.Fatalf("go vet passed with a fuzz target missing from ci.sh; output:\n%s", out)
		}
		if !strings.Contains(out, "FuzzParse is not exercised by ci.sh") {
			t.Fatalf("diagnostic missing fuzz drift:\n%s", out)
		}
	})

	t.Run("flags_driftcheck_codec", func(t *testing.T) {
		out, err := vet(t, map[string]string{
			"wire/wire.go": `package wire

func EncodeLen(v uint32) []byte { return []byte{byte(v)} }
`,
		})
		if err == nil {
			t.Fatalf("go vet passed with an Encode lacking a Decode; output:\n%s", out)
		}
		if !strings.Contains(out, "EncodeLen has no matching DecodeLen") {
			t.Fatalf("diagnostic missing codec drift:\n%s", out)
		}
	})

	t.Run("clean_module_passes", func(t *testing.T) {
		out, err := vet(t, map[string]string{"p.go": `package p

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Startup records when the process began; the daemon boundary is genuinely
// wall-clock and says so.
var Startup = time.Now() //itcvet:allow wallclock -- process start is wall time by definition

// Pick draws from an explicitly seeded stream.
func Pick(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (c *Counter) Bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Dump emits keys in sorted order, so map iteration never reaches the sink.
func Dump(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
	}
	return b.String()
}
`})
		if err != nil {
			t.Fatalf("go vet failed on a clean module: %v\n%s", err, out)
		}
	})

	// The sanctioned idioms for the v2 analyzers: consistent lock order, an
	// annotated intended block, propagated durability errors, contracted
	// mutexes, a fuzz target in ci.sh, and a codec with a round-trip test.
	t.Run("clean_v2_module_passes", func(t *testing.T) {
		out, err := vet(t, map[string]string{
			"ci.sh": "#!/bin/sh\ngo test -run=NONE -fuzz='^FuzzParse$' -fuzztime=10s .\n",
			"p.go": `package p

import "sync"

type Store struct{}

func (s *Store) Sync() error { return nil }

type Q struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Flush bumps the counter, hands it to the (capacity-1) status channel,
// and propagates the store's durability error.
func Flush(s *Store, q *Q, ch chan int) error {
	q.mu.Lock()
	q.n++
	//itcvet:allowblocking capacity-1 status channel with a dedicated drainer
	ch <- q.n
	q.mu.Unlock()
	return s.Sync()
}
`,
			"p_test.go": `package p

import "testing"

func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {})
}
`,
			"wire/wire.go": `package wire

func EncodeLen(v uint32) []byte { return []byte{byte(v)} }

func DecodeLen(b []byte) uint32 { return uint32(b[0]) }
`,
			"wire/wire_test.go": `package wire

import "testing"

func TestLenRoundTrip(t *testing.T) {
	if DecodeLen(EncodeLen(7)) != 7 {
		t.Fatal("round trip broken")
	}
}
`,
		})
		if err != nil {
			t.Fatalf("go vet failed on a clean v2 module: %v\n%s", err, out)
		}
	})
}

// TestDeterminism pins the self-check satellite: the same tree analyzed
// twice produces byte-identical diagnostics, and -lockgraph over the real
// repository produces byte-identical graphs. Two separate module copies
// defeat the go command's vet result cache; diagnostics print paths
// relative to the working directory, so the outputs must match exactly.
func TestDeterminism(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("exercises the unix vet pipeline")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "itcvet")
	build := exec.Command(goTool, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building itcvet: %v\n%s", err, out)
	}

	src := `package p

import (
	"sync"
	"time"
)

type Bare struct {
	mu sync.Mutex
	n  int
}

type Store struct{}

func (s *Store) Sync() error { return nil }

func Flush(s *Store, b *Bare, ch chan int) {
	_ = s.Sync()
	b.mu.Lock()
	ch <- b.n
	b.mu.Unlock()
}

func Stamp() int64 { return time.Now().UnixNano() }
`
	runVet := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		for name, content := range map[string]string{
			"go.mod": "module fixture\n\ngo 1.22\n",
			"p.go":   src,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cmd := exec.Command(goTool, "vet", "-vettool="+bin, "./...")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("expected findings, got clean run:\n%s", out)
		}
		return string(out)
	}
	first, second := runVet(t), runVet(t)
	if first != second {
		t.Fatalf("diagnostics differ between identical runs:\n--- first\n%s\n--- second\n%s", first, second)
	}

	lockgraph := func() string {
		cmd := exec.Command(bin, "-lockgraph", "./...")
		cmd.Dir = filepath.Join("..", "..") // repository root
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("itcvet -lockgraph: %v\n%s", err, out)
		}
		return string(out)
	}
	g1, g2 := lockgraph(), lockgraph()
	if g1 != g2 {
		t.Fatalf("-lockgraph output differs between identical runs:\n--- first\n%s\n--- second\n%s", g1, g2)
	}

	// The graph embedded in DESIGN.md section 7 is the same graph, so the
	// documented one cannot drift from the code. Regenerate the block with:
	// go run ./tools/itcvet -lockgraph ./...
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, block, found := strings.Cut(string(design), "<!-- lockgraph:begin -->\n")
	block, _, closed := strings.Cut(block, "<!-- lockgraph:end -->")
	if !found || !closed {
		t.Fatal("DESIGN.md has no <!-- lockgraph:begin/end --> block")
	}
	if doc := strings.ReplaceAll(block, "```\n", ""); doc != g1 {
		t.Fatalf("DESIGN.md's lock graph is not what -lockgraph prints:\n--- DESIGN.md\n%s\n--- itcvet\n%s", doc, g1)
	}
}
