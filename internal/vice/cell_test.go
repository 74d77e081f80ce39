package vice

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
)

// TestCellRebootsFromItsStores boots three servers over walstores, creates a
// volume on each through its dispatcher, and boots the cell again from the
// same stores, abandoned without a checkpoint: the root volume is recovered,
// not created again, "/" resolves on every server, and no volume ID is
// issued twice, before the restart or after it.
func TestCellRebootsFromItsStores(t *testing.T) {
	disks := []*store.MemFS{store.NewMemFS(), store.NewMemFS(), store.NewMemFS()}
	issued := map[uint32]string{1: "/"}
	// create makes a volume at path through server srv, which holds its parent.
	create := func(c *cell, srv int, path string) uint32 {
		t.Helper()
		resp := mustOK(t, c.call("operator", srv, proto.OpVolCreate,
			proto.Marshal(proto.VolCreateArgs{Name: path, Path: path, Owner: "satya"}), nil))
		vs, err := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := issued[vs.Volume]; ok {
			t.Fatalf("volume %d, issued for %s, was issued for %s before", vs.Volume, path, prev)
		}
		issued[vs.Volume] = path
		return vs.Volume
	}

	c := bootDisks(t, disks...)
	for i, s := range c.servers {
		top := fmt.Sprintf("/v%d", i)
		if vid := create(c, 0, top); i > 0 {
			mustOK(t, c.call("operator", 0, proto.OpVolMove,
				proto.Marshal(proto.VolMoveArgs{Volume: vid, Target: s.Name()}), nil))
		}
		create(c, i, top+"/a")
	}

	c = bootDisks(t, disks...)
	for i, s := range c.servers {
		if _, ok := s.Volume(1); ok != (i == 0) {
			t.Errorf("%s holds the root volume: %v", s.Name(), ok)
		}
		if le, ok := s.Loc().Resolve("/"); !ok || le.Volume != 1 || le.Custodian != "server0" {
			t.Errorf("%s resolves / to %+v, %v", s.Name(), le, ok)
		}
		create(c, i, fmt.Sprintf("/v%d/b", i))
	}
	// The root volume is the one the volumes were mounted in, not a new one.
	root, _ := c.servers[0].Volume(1)
	for i := range c.servers {
		if _, err := root.Lookup(root.Root(), fmt.Sprintf("v%d", i)); err != nil {
			t.Errorf("the recovered root volume lost v%d: %v", i, err)
		}
	}
}

// bootDisks boots a cell of a server per disk, each over a walstore on it.
func bootDisks(t *testing.T, disks ...*store.MemFS) *cell {
	t.Helper()
	cfgs := make([]Config, len(disks))
	for i, disk := range disks {
		ws, err := walstore.Open(disk)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = Config{Name: fmt.Sprintf("server%d", i), Mode: Revised, Store: ws}
	}
	return bootCell(t, cfgs)
}

// TestFirstBootCutBeforeTheRootRow: a first boot that crashed after
// journalling the root volume, in the middle of its "/" row, gets the row on
// the next boot.
func TestFirstBootCutBeforeTheRootRow(t *testing.T) {
	disk := store.NewMemFS()
	bootDisks(t, disk)
	wal, err := disk.ReadFile("wal.log")
	if err == nil {
		err = disk.Truncate("wal.log", int64(len(wal)-1))
	}
	if err != nil {
		t.Fatal(err)
	}
	s := bootDisks(t, disk).servers[0]
	if _, ok := s.Volume(1); !ok {
		t.Fatal("the cut log lost the root volume")
	}
	if le, ok := s.Loc().Resolve("/"); !ok || le.Volume != 1 {
		t.Fatalf("/ resolves to %+v, %v", le, ok)
	}
}

// TestCellBootsInOnePlace reads the module's Go source, tests included: only
// cell.go creates volume 1 or gives the operations staff their group, in
// BootCell, which every cell boots through. bench/ is a module of its own,
// whose server is built with New.
func TestCellBootsInOnePlace(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == filepath.Join(root, "bench") || d.Name() == "testdata" || d.Name() == ".git"):
			return filepath.SkipDir
		case !strings.HasSuffix(path, ".go") || path == filepath.Join(root, "internal", "vice", "cell.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if step := bootstrapStep(n); step != "" {
				found = append(found, fmt.Sprintf("%s %s", fset.Position(n.Pos()), step))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) > 0 {
		t.Fatalf("a cell's bootstrap outside BootCell:\n%s", strings.Join(found, "\n"))
	}
}

// bootstrapStep names the bootstrap step n takes, if it takes one: a call
// volume.New(1, ...), or a protection mutation that creates AdminGroup or
// makes the operator a member of it.
func bootstrapStep(n ast.Node) string {
	switch n := n.(type) {
	case *ast.CallExpr:
		if types.ExprString(n.Fun) == "volume.New" && len(n.Args) > 0 && types.ExprString(n.Args[0]) == "1" {
			return "creates volume 1"
		}
	case *ast.CompositeLit:
		field := map[string]string{}
		for _, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				field[types.ExprString(kv.Key)] = strings.Trim(types.ExprString(kv.Value), `"`)
			}
		}
		staff := strings.HasSuffix(field["Name"], "AdminGroup") || field["Name"] == AdminGroup
		if staff && strings.HasSuffix(field["Kind"], "MutAddGroup") {
			return "creates " + AdminGroup
		}
		if staff && strings.HasSuffix(field["Kind"], "MutAddMember") && field["Member"] == operator {
			return "adds the operator to " + AdminGroup
		}
	}
	return ""
}
