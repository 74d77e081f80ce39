package venus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryLendEnds reads this package's source: every function that borrows
// a cache file's contents with Local.Lend must end the loan with
// Local.Return somewhere after it in the same function — a deferred Return
// counts. A loan that never ends is not a fault any other test would see: it
// only makes every later write to the file copy it, which is the cost this
// rule exists to remove.
func TestEveryLendEnds(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	lends := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var lent, returned []token.Pos
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch localCall(n) {
				case "Lend":
					lent = append(lent, n.Pos())
				case "Return":
					returned = append(returned, n.Pos())
				}
				return true
			})
			lends += len(lent)
			for _, l := range lent {
				ended := false
				for _, r := range returned {
					ended = ended || r > l
				}
				if !ended {
					t.Errorf("%s: %s lends a cache file and never returns it", fset.Position(l), fn.Name.Name)
				}
			}
		}
	}
	if lends == 0 {
		t.Fatal("found no Local.Lend call: the check looks in the wrong place")
	}
}

// localCall names the method n calls on a field called Local (v.cfg.Local),
// or returns "".
func localCall(n ast.Node) string {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if x, ok := sel.X.(*ast.SelectorExpr); ok && x.Sel.Name == "Local" {
		return sel.Sel.Name
	}
	return ""
}
