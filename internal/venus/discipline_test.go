package venus

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"itcfs/internal/vice"
)

// TestModeIsChosenOnce reads this package's source: Config.Mode is read once,
// in New, which chooses the discipline from it. A question whose answer
// depends on the mode is a method of discipline, not one more test of the
// mode. A read is a selector .Mode on something named cfg: the Config New
// takes, and the field a Venus keeps it in.
func TestModeIsChosenOnce(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var reads []string // "position in function"
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Mode" && namedCfg(sel.X) {
					reads = append(reads, fmt.Sprintf("%s in %s", fset.Position(sel.Pos()), fn.Name.Name))
				}
				return true
			})
		}
	}
	if len(reads) != 1 || !strings.HasSuffix(reads[0], " in New") {
		t.Fatalf("Config.Mode is read %d times, want once, in New:\n%s", len(reads), strings.Join(reads, "\n"))
	}
}

// namedCfg reports whether x is the identifier cfg or a selector of a field
// called cfg (v.cfg).
func namedCfg(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name == "cfg"
	case *ast.SelectorExpr:
		return x.Sel.Name == "cfg"
	}
	return false
}

// mix is a call mix: the part of Stats it is read from, and the pathname
// components the server walked for the calls — a path ref's cost, which a FID
// ref does not have.
type mix struct {
	Opens, Hits, Misses, Validations, StatRPCs, Fetches, Stores, OtherRPCs int64
	Walked                                                                 int64
}

func mixOf(s Stats, walked int64) mix {
	return mix{s.Opens, s.Hits, s.Misses, s.Validations, s.StatRPCs, s.Fetches, s.Stores, s.OtherRPCs, walked}
}

// TestCallMixPerDiscipline pins what each operation costs in each mode: the
// opens, hits and misses it counts, the calls it makes and the pathname
// components they make the server walk, on a Venus that has done prep first
// (nil leaves it cold). /u holds the file f and the directory d, made by
// another workstation of the same user.
func TestCallMixPerDiscipline(t *testing.T) {
	open := func(v *Venus) error {
		h, err := v.Open(nil, "/u/f", FlagRead)
		if err != nil {
			return err
		}
		return h.Close(nil)
	}
	list := func(v *Venus) error { _, err := v.ReadDir(nil, "/u"); return err }
	cases := []struct {
		name      string
		prep, op  func(v *Venus) error
		prototype mix
		revised   mix
	}{
		{"cold open", nil, open,
			mix{Opens: 1, Misses: 1, Fetches: 1, OtherRPCs: 1, Walked: 1},
			mix{Opens: 1, Misses: 2, Fetches: 2, OtherRPCs: 1}},
		{"warm open", open, open,
			mix{Opens: 1, Hits: 1, Validations: 1, Walked: 1},
			mix{Opens: 1, Hits: 1}},
		{"warm ReadFile", open, func(v *Venus) error { _, err := v.ReadFile(nil, "/u/f"); return err },
			mix{Opens: 1, Hits: 1, Validations: 1, Walked: 1},
			mix{Opens: 1, Hits: 1}},
		{"Stat", open, func(v *Venus) error { _, err := v.Stat(nil, "/u/f"); return err },
			mix{StatRPCs: 1, Walked: 1},
			mix{}},
		{"cold ReadDir", nil, list,
			mix{Opens: 1, Misses: 1, Fetches: 1, OtherRPCs: 1},
			mix{Misses: 1, Fetches: 1, OtherRPCs: 1}},
		{"warm ReadDir", list, list,
			mix{Opens: 1, Hits: 1, Validations: 1},
			mix{}},
		{"Mkdir", open, func(v *Venus) error { return v.Mkdir(nil, "/u/e", 0o755) },
			mix{OtherRPCs: 1},
			mix{OtherRPCs: 1}},
		{"Remove", open, func(v *Venus) error { return v.Remove(nil, "/u/f") },
			mix{OtherRPCs: 1},
			mix{OtherRPCs: 1}},
		{"Rename within one directory", open, func(v *Venus) error { return v.Rename(nil, "/u/f", "/u/g") },
			mix{OtherRPCs: 1},
			mix{OtherRPCs: 1}},
		{"Rename across two", open, func(v *Venus) error { return v.Rename(nil, "/u/f", "/u/d/g") },
			mix{OtherRPCs: 1, Walked: 1},
			mix{OtherRPCs: 1}},
		{"store on close", open, func(v *Venus) error {
			h, err := v.Open(nil, "/u/f", FlagWrite)
			if err != nil {
				return err
			}
			if _, err := h.WriteAt([]byte("v2"), 0); err != nil {
				return err
			}
			return h.Close(nil)
		},
			mix{Opens: 1, Hits: 1, Validations: 1, Stores: 1, Walked: 2},
			mix{Opens: 1, Hits: 1, Stores: 1}},
		{"Symlink", open, func(v *Venus) error { return v.Symlink(nil, "/u/f", "/u/s") },
			mix{OtherRPCs: 1},
			mix{OtherRPCs: 1}},
		{"Link", open, func(v *Venus) error { return v.Link(nil, "/u/f", "/u/h") },
			mix{OtherRPCs: 1, Walked: 1},
			mix{OtherRPCs: 1}},
		{"SetMode", open, func(v *Venus) error { return v.SetMode(nil, "/u/f", 0o600) },
			mix{OtherRPCs: 1, Walked: 1},
			mix{OtherRPCs: 1}},
		{"Lock and Unlock", open, func(v *Venus) error {
			if err := v.Lock(nil, "/u/f", true); err != nil {
				return err
			}
			return v.Unlock(nil, "/u/f")
		},
			mix{OtherRPCs: 2, Walked: 2},
			mix{OtherRPCs: 2}},
	}
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		for _, tc := range cases {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				c := newTestCell(t, mode, "s0")
				c.mkVolume("u", "/u", "satya", 0)
				w := c.newVenus("s0", "satya", nil)
				writeFile(t, w, "/u/f", "data")
				if err := w.Mkdir(nil, "/u/d", 0o755); err != nil {
					t.Fatal(err)
				}
				v := c.newVenus("s0", "satya", nil)
				if tc.prep != nil {
					if err := tc.prep(v); err != nil {
						t.Fatalf("prep: %v", err)
					}
				}
				v.ResetStats()
				_, _, walked := c.servers["s0"].TrafficStats()
				if err := tc.op(v); err != nil {
					t.Fatal(err)
				}
				_, _, walkedAfter := c.servers["s0"].TrafficStats()
				want := tc.revised
				if mode == vice.Prototype {
					want = tc.prototype
				}
				if got := mixOf(v.Stats(), walkedAfter-walked); got != want {
					t.Errorf("call mix\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}
