// Package driftcheck detects coverage drift: the gap that opens when code
// grows a new surface but the harness that was supposed to exercise it is
// never told.
//
// Four invariants, each cheap to state and easy to silently lose:
//
//  1. Every Fuzz* target is exercised by ci.sh. A fuzz function that is not
//     in the CI fuzz gate runs zero iterations forever; the check word-
//     matches each target's name against the ci.sh found at the module
//     root (walking up from the package directory, never past a directory
//     named "testdata", so fixture modules bring their own ci.sh).
//
//  2. Every Encode has a Decode and a round-trip test. In the codec
//     packages (wire, proto), an exported EncodeX function must have a
//     DecodeX counterpart, a method (T) Encode must have a DecodeT, and
//     the decoder's name must appear in some *_test.go in the package —
//     the cheapest possible witness that a round-trip test exists. An
//     encoder without a decoder is a write-only format; one without a
//     round-trip test is a format whose compatibility nobody checks.
//
//  3. Every mutex-owning struct states its contract. A sync.Mutex or
//     sync.RWMutex field must either be named by at least one sibling
//     field's "guarded by <mu>" comment (lockcheck then enforces it) or
//     carry its own comment saying what it serializes/guards. An
//     uncontracted mutex is invisible to lockcheck and lockorder's holds
//     annotations — exactly the state the MemFS and FaultFS mutexes had
//     drifted into when this check was written.
//
//  4. Every metric and flight-event name is canonical. Outside
//     internal/trace (where the tables live), the first argument to
//     Registry.Counter/Gauge/Histogram/FindHistogram and
//     Recorder.Log must not be a raw string literal: a name minted at the
//     call site is invisible to the canonical tables in names.go, so
//     dashboards, the SLO layer and the conformance tests silently stop
//     agreeing on one spelling. Composed names (VolOpsMetric(v),
//     "net."+link+".frames") and named constants pass; test files are
//     exempt — tests mint ad-hoc names freely.
//
// Findings carry category "drift" for the standard //itcvet:allow hatch.
package driftcheck

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"itcfs/tools/itcvet/internal/check"
	"itcfs/tools/itcvet/internal/locks"
)

// Analyzer is the driftcheck pass.
var Analyzer = &check.Analyzer{
	Name:     "driftcheck",
	Doc:      "coverage drift: Fuzz* targets absent from ci.sh, Encode* without Decode*/round-trip tests in wire and proto, mutexes without a guarded-by contract, metric/flight-event names minted as literals outside internal/trace's canonical tables",
	Category: "drift",
	Run:      run,
}

// codecPkgs are the packages whose Encode/Decode surface is paired.
var codecPkgs = map[string]bool{"wire": true, "proto": true}

func run(pass *check.Pass) {
	checkFuzzTargets(pass)
	if codecPkgs[pass.Pkg.Name()] {
		checkCodecPairs(pass)
	}
	checkMutexContracts(pass)
	checkCanonicalNames(pass)
}

// --- invariant 1: fuzz targets vs ci.sh -------------------------------

func checkFuzzTargets(pass *check.Pass) {
	type target struct {
		decl *ast.FuncDecl
		dir  string
	}
	var targets []target
	for _, f := range pass.Files {
		posn := pass.Fset.Position(f.Pos())
		if !strings.HasSuffix(posn.Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Fuzz") {
				continue
			}
			targets = append(targets, target{fd, filepath.Dir(posn.Filename)})
		}
	}
	if len(targets) == 0 {
		return
	}
	ciCache := map[string]string{}
	for _, t := range targets {
		ci, ok := ciCache[t.dir]
		if !ok {
			ci = readCI(t.dir)
			ciCache[t.dir] = ci
		}
		if ci == "" {
			continue // no ci.sh governs this module; nothing to drift from
		}
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(t.decl.Name.Name) + `\b`).MatchString(ci) {
			pass.Reportf(t.decl.Pos(),
				"fuzz target %s is not exercised by ci.sh; a fuzz function missing from the CI gate runs zero iterations forever", t.decl.Name.Name)
		}
	}
}

// readCI walks up from dir to the module root (go.mod) and returns that
// directory's ci.sh, or "" if either is missing. The walk never ascends
// out of a directory named "testdata": fixture packages must bring their
// own module, not inherit the real repo's gate.
func readCI(dir string) string {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			b, err := os.ReadFile(filepath.Join(dir, "ci.sh"))
			if err != nil {
				return ""
			}
			return string(b)
		}
		if filepath.Base(dir) == "testdata" {
			return ""
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// --- invariant 2: Encode/Decode pairing and round-trip tests ----------

func checkCodecPairs(pass *check.Pass) {
	// encoder name -> required decoder name, with a report position.
	type want struct {
		encoder string
		decoder string
		pos     ast.Node
	}
	var wants []want
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !ast.IsExported(fd.Name.Name) {
				continue
			}
			switch {
			case fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Encode"):
				wants = append(wants, want{fd.Name.Name, "Decode" + strings.TrimPrefix(fd.Name.Name, "Encode"), fd.Name})
			case fd.Recv != nil && fd.Name.Name == "Encode":
				if tn := recvTypeName(pass, fd); tn != "" && ast.IsExported(tn) {
					wants = append(wants, want{tn + ".Encode", "Decode" + tn, fd.Name})
				}
			}
		}
	}
	if len(wants) == 0 {
		return
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].encoder < wants[j].encoder })
	tests := testFileText(pass)
	for _, w := range wants {
		if pass.Pkg.Scope().Lookup(w.decoder) == nil {
			pass.Reportf(w.pos.Pos(),
				"%s has no matching %s in package %s; an encoder without a decoder is a write-only wire format", w.encoder, w.decoder, pass.Pkg.Name())
			continue
		}
		if !strings.Contains(tests, w.decoder) {
			pass.Reportf(w.pos.Pos(),
				"%s has no round-trip test: no *_test.go in the package mentions %s", w.encoder, w.decoder)
		}
	}
}

// testFileText concatenates every *_test.go in the package directory, read
// from disk: the vet unit for the plain package does not carry test files,
// and the check must not depend on which unit variant it runs in.
func testFileText(pass *check.Pass) string {
	if len(pass.Files) == 0 {
		return ""
	}
	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	var sb strings.Builder
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			sb.Write(b)
		}
	}
	return sb.String()
}

func recvTypeName(pass *check.Pass, fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	if tn := check.NamedOf(pass.Info.TypeOf(fd.Recv.List[0].Type)); tn != nil {
		return tn.Name()
	}
	return ""
}

// --- invariant 3: mutex contracts -------------------------------------

// contractWords in a mutex's own comment count as a stated contract for
// mutexes that serialize actions rather than guard fields (secure's
// direction.mu, vice's Server.gate).
var contractWords = regexp.MustCompile(`\b(serializes|guards|guarded)\b`)

// checkMutexContracts reads the same lock inventory lockcheck and lockorder
// do: a mutex is contracted when a sibling's guarded-by names it, in
// canonical form or in prose, or its own comment says what it is for.
func checkMutexContracts(pass *check.Pass) {
	for _, s := range locks.NewInventory(pass.Files, pass.Info).Structs {
		if pass.IsTestFile(s.Spec.Pos()) {
			continue
		}
		for _, m := range s.Mutexes {
			if s.Named[m.Name] || contractWords.MatchString(fieldComments(m.Field)) {
				continue
			}
			pass.Reportf(m.Field.Pos(),
				"mutex %s.%s has no contract: no sibling field says `// guarded by %s` and the mutex's own comment does not say what it serializes or guards",
				s.Type.Name(), m.Name, m.Name)
		}
	}
}

func fieldComments(fld *ast.Field) string {
	var sb strings.Builder
	if fld.Doc != nil {
		sb.WriteString(fld.Doc.Text())
		sb.WriteString("\n")
	}
	if fld.Comment != nil {
		sb.WriteString(fld.Comment.Text())
	}
	return sb.String()
}

// --- invariant 4: canonical metric and flight-event names -------------

// nameMethods maps the observability entry points whose first argument
// names a metric instrument or a flight-event kind.
var nameMethods = map[string]map[string]bool{
	"Registry": {"Counter": true, "Gauge": true, "Histogram": true, "FindHistogram": true},
	"Recorder": {"Log": true},
}

func checkCanonicalNames(pass *check.Pass) {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/trace") {
		return // the canonical tables themselves live here
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue // tests mint ad-hoc names freely
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := traceReceiver(pass, sel)
			if recv == "" || !nameMethods[recv][sel.Sel.Name] {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				pass.Reportf(lit.Pos(),
					"%s.%s name %s is a raw string literal at the call site; spell it via the canonical tables in internal/trace (names.go), so dashboards, the SLO layer and the conformance tests agree on one name",
					recv, sel.Sel.Name, lit.Value)
			}
			return true
		})
	}
}

// traceReceiver returns the receiver type name ("Registry", "Recorder")
// when sel selects a method on an internal/trace type, else "".
func traceReceiver(pass *check.Pass, sel *ast.SelectorExpr) string {
	tn := check.NamedOf(pass.Info.TypeOf(sel.X))
	if tn == nil || tn.Pkg() == nil || !strings.HasSuffix(tn.Pkg().Path(), "internal/trace") {
		return ""
	}
	return tn.Name()
}
