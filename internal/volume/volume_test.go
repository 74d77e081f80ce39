package volume

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
)

func newVol() *Volume {
	var t int64
	acl := prot.NewACL()
	acl.Grant("satya", prot.RightsAll)
	return New(1, "user.satya", acl, 0, "satya", func() int64 { t++; return t })
}

func mkFile(t *testing.T, v *Volume, dir proto.FID, name, contents string) proto.FID {
	t.Helper()
	vn, err := v.Create(dir, name, 0o644, "satya")
	if err != nil {
		t.Fatalf("Create(%s): %v", name, err)
	}
	if contents != "" {
		if _, err := v.WriteData(vn.Status.FID, []byte(contents)); err != nil {
			t.Fatalf("WriteData(%s): %v", name, err)
		}
	}
	return vn.Status.FID
}

func mkDir(t *testing.T, v *Volume, dir proto.FID, name string) proto.FID {
	t.Helper()
	vn, err := v.MakeDir(dir, name, 0o755, "satya")
	if err != nil {
		t.Fatalf("MakeDir(%s): %v", name, err)
	}
	return vn.Status.FID
}

func TestCreateWriteRead(t *testing.T) {
	v := newVol()
	fid := mkFile(t, v, v.Root(), "paper.mss", "scale is the dominant design influence")
	data, vn, err := v.ReadData(fid)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "scale is the dominant design influence" {
		t.Fatalf("data = %q", data)
	}
	if vn.Status.Size != int64(len(data)) || vn.Status.Type != proto.TypeFile {
		t.Fatalf("status = %+v", vn.Status)
	}
	if v.Used() != int64(len(data)) {
		t.Fatalf("Used = %d", v.Used())
	}
}

func TestVersionAdvancesOnWrite(t *testing.T) {
	v := newVol()
	fid := mkFile(t, v, v.Root(), "f", "v1")
	_, vn, _ := v.ReadData(fid)
	ver1 := vn.Status.Version
	if _, err := v.WriteData(fid, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	_, vn, _ = v.ReadData(fid)
	if vn.Status.Version <= ver1 {
		t.Fatalf("version %d -> %d", ver1, vn.Status.Version)
	}
}

func TestLookupAndList(t *testing.T) {
	v := newVol()
	mkFile(t, v, v.Root(), "b", "")
	mkFile(t, v, v.Root(), "a", "")
	sub := mkDir(t, v, v.Root(), "src")
	mkFile(t, v, sub, "main.c", "")
	rn, err := v.Get(v.Root())
	if err != nil {
		t.Fatal(err)
	}
	if entries := rn.Entries; len(entries) != 3 || entries[0].Name != "a" || entries[2].Name != "src" {
		t.Fatalf("entries = %+v", rn.Entries)
	}
	de, err := v.Lookup(v.Root(), "src")
	if err != nil || de.Type != proto.TypeDir {
		t.Fatalf("Lookup: %+v %v", de, err)
	}
	if _, err := v.Lookup(v.Root(), "nope"); !errors.Is(err, proto.ErrNoEnt) {
		t.Fatalf("err = %v", err)
	}
}

func TestDirDataDecodes(t *testing.T) {
	v := newVol()
	mkFile(t, v, v.Root(), "x", "")
	data, rn, err := v.ReadData(v.Root())
	if err != nil {
		t.Fatal(err)
	}
	entries, err := proto.Unmarshal(data, proto.DecodeDirEntries)
	if err != nil || len(entries) != 1 || entries[0].Name != "x" {
		t.Fatalf("decoded = %+v, %v", entries, err)
	}
	if rn.Status.Size != int64(len(data)) {
		t.Fatalf("Size = %d, listing is %d bytes", rn.Status.Size, len(data))
	}
}

func TestStaleFIDRejected(t *testing.T) {
	v := newVol()
	fid := mkFile(t, v, v.Root(), "f", "data")
	if err := v.Remove(v.Root(), "f"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.ReadData(fid); !errors.Is(err, proto.ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
	// A new file reusing names gets a fresh Uniq; the old FID stays stale.
	fid2 := mkFile(t, v, v.Root(), "f", "new")
	if fid2 == fid {
		t.Fatal("FID reused")
	}
}

func TestQuotaEnforced(t *testing.T) {
	v := newVol()
	v.SetQuota(100)
	fid := mkFile(t, v, v.Root(), "f", "")
	if _, err := v.WriteData(fid, make([]byte, 100)); err != nil {
		t.Fatalf("write at quota: %v", err)
	}
	if _, err := v.WriteData(fid, make([]byte, 101)); !errors.Is(err, proto.ErrQuota) {
		t.Fatalf("err = %v, want ErrQuota", err)
	}
	// Shrinking is always allowed.
	if _, err := v.WriteData(fid, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if v.Used() != 10 {
		t.Fatalf("Used = %d", v.Used())
	}
}

func TestOfflineRefusesEverything(t *testing.T) {
	v := newVol()
	fid := mkFile(t, v, v.Root(), "f", "x")
	v.SetOnline(false)
	if _, _, err := v.ReadData(fid); !errors.Is(err, proto.ErrOffline) {
		t.Fatalf("read err = %v", err)
	}
	if _, err := v.Create(v.Root(), "g", 0o644, "u"); !errors.Is(err, proto.ErrOffline) {
		t.Fatalf("create err = %v", err)
	}
	v.SetOnline(true)
	if _, _, err := v.ReadData(fid); err != nil {
		t.Fatalf("read after online: %v", err)
	}
}

func TestRemoveDirSemantics(t *testing.T) {
	v := newVol()
	sub := mkDir(t, v, v.Root(), "d")
	mkFile(t, v, sub, "f", "")
	if err := v.RemoveDir(v.Root(), "d"); !errors.Is(err, proto.ErrNotEmpty) {
		t.Fatalf("err = %v", err)
	}
	if err := v.Remove(v.Root(), "d"); !errors.Is(err, proto.ErrIsDir) {
		t.Fatalf("err = %v", err)
	}
	if err := v.Remove(sub, "f"); err != nil {
		t.Fatal(err)
	}
	if err := v.RemoveDir(v.Root(), "d"); err != nil {
		t.Fatal(err)
	}
}

func TestRenameKeepsFID(t *testing.T) {
	v := newVol()
	fid := mkFile(t, v, v.Root(), "old", "data")
	if err := v.Rename(v.Root(), "old", v.Root(), "new"); err != nil {
		t.Fatal(err)
	}
	de, err := v.Lookup(v.Root(), "new")
	if err != nil || de.FID != fid {
		t.Fatalf("FID changed across rename: %+v %v", de, err)
	}
	data, _, err := v.ReadData(fid)
	if err != nil || string(data) != "data" {
		t.Fatalf("data after rename: %q %v", data, err)
	}
}

func TestRenameDirectorySubtree(t *testing.T) {
	v := newVol()
	a := mkDir(t, v, v.Root(), "a")
	b := mkDir(t, v, v.Root(), "b")
	sub := mkDir(t, v, a, "sub")
	f := mkFile(t, v, sub, "f", "deep")
	if err := v.Rename(v.Root(), "a", b, "moved"); err != nil {
		t.Fatal(err)
	}
	// The whole subtree is reachable via b/moved/sub/f with unchanged FIDs.
	de, err := v.Lookup(b, "moved")
	if err != nil || de.FID != a {
		t.Fatal("dir FID changed")
	}
	data, _, err := v.ReadData(f)
	if err != nil || string(data) != "deep" {
		t.Fatalf("deep file: %q %v", data, err)
	}
}

func TestRenameUnderSelfRefused(t *testing.T) {
	v := newVol()
	a := mkDir(t, v, v.Root(), "a")
	b := mkDir(t, v, a, "b")
	if err := v.Rename(v.Root(), "a", b, "a"); !errors.Is(err, proto.ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestRenameReplacesFile(t *testing.T) {
	v := newVol()
	mkFile(t, v, v.Root(), "src", "S")
	mkFile(t, v, v.Root(), "dst", "D")
	if err := v.Rename(v.Root(), "src", v.Root(), "dst"); err != nil {
		t.Fatal(err)
	}
	de, _ := v.Lookup(v.Root(), "dst")
	data, _, _ := v.ReadData(de.FID)
	if string(data) != "S" {
		t.Fatalf("dst = %q", data)
	}
	if _, err := v.Lookup(v.Root(), "src"); !errors.Is(err, proto.ErrNoEnt) {
		t.Fatal("src still present")
	}
}

func TestSymlinkAndLink(t *testing.T) {
	v := newVol()
	fid := mkFile(t, v, v.Root(), "f", "shared")
	ln, err := v.Symlink(v.Root(), "sym", "/vice/usr/f")
	if err != nil {
		t.Fatal(err)
	}
	if ln.Status.Target != "/vice/usr/f" || ln.Status.Type != proto.TypeSymlink {
		t.Fatalf("symlink status = %+v", ln.Status)
	}
	if err := v.Link(v.Root(), "hard", fid); err != nil {
		t.Fatal(err)
	}
	de, _ := v.Lookup(v.Root(), "hard")
	if de.FID != fid {
		t.Fatal("hard link FID differs")
	}
	vn, _ := v.Get(fid)
	if vn.Status.Links != 2 {
		t.Fatalf("links = %d", vn.Status.Links)
	}
	// Removing one name keeps the data.
	if err := v.Remove(v.Root(), "f"); err != nil {
		t.Fatal(err)
	}
	data, _, err := v.ReadData(fid)
	if err != nil || string(data) != "shared" {
		t.Fatalf("after unlink: %q %v", data, err)
	}
	if v.Used() != int64(len("shared")) {
		t.Fatalf("Used = %d", v.Used())
	}
}

func TestMakeDirInheritsACL(t *testing.T) {
	v := newVol()
	acl := prot.NewACL()
	acl.Grant("faculty", prot.RightRead|prot.RightLookup)
	if err := v.SetACL(v.Root(), acl); err != nil {
		t.Fatal(err)
	}
	sub := mkDir(t, v, v.Root(), "sub")
	got, err := v.GetACL(sub)
	if err != nil {
		t.Fatal(err)
	}
	if got.Positive["faculty"] != prot.RightRead|prot.RightLookup {
		t.Fatalf("inherited ACL = %+v", got)
	}
	// And it is a copy, not an alias.
	acl.Grant("faculty", prot.RightsAll)
	got, _ = v.GetACL(sub)
	if got.Positive["faculty"] == prot.RightsAll {
		t.Fatal("child ACL aliases parent")
	}
}

func TestCloneIsFrozenAndCheap(t *testing.T) {
	v := newVol()
	fid := mkFile(t, v, v.Root(), "binary", "version-1")
	clone := v.Clone(100, "user.satya.readonly")
	if !clone.ReadOnly() {
		t.Fatal("clone not read-only")
	}
	// Clone refuses writes.
	cfid := proto.FID{Volume: 100, Vnode: fid.Vnode, Uniq: fid.Uniq}
	if _, err := clone.WriteData(cfid, []byte("x")); !errors.Is(err, proto.ErrReadOnly) {
		t.Fatalf("err = %v, want ErrReadOnly", err)
	}
	// Writing the parent does not disturb the clone (copy-on-write).
	if _, err := v.WriteData(fid, []byte("version-2")); err != nil {
		t.Fatal(err)
	}
	data, _, err := clone.ReadData(cfid)
	if err != nil || string(data) != "version-1" {
		t.Fatalf("clone data = %q %v", data, err)
	}
	// And the parent really changed.
	data, _, _ = v.ReadData(fid)
	if string(data) != "version-2" {
		t.Fatalf("parent data = %q", data)
	}
}

func TestCloneSharesDataSlices(t *testing.T) {
	v := newVol()
	fid := mkFile(t, v, v.Root(), "big", string(bytes.Repeat([]byte("x"), 1024)))
	clone := v.Clone(100, "ro")
	vn, _ := v.Get(fid)
	cvn, _ := clone.Get(proto.FID{Volume: 100, Vnode: fid.Vnode, Uniq: fid.Uniq})
	if &vn.Data[0] != &cvn.Data[0] {
		t.Fatal("clone copied file data; expected shared slice")
	}
}

// TestCloneKeepsMountPoints: a clone's own entries move to its volume ID, and
// a mount point still names the volume it mounts, not the clone's root.
func TestCloneKeepsMountPoints(t *testing.T) {
	var tick int64
	v := New(7, "proj", prot.NewACL(), 0, "satya", func() int64 { tick++; return tick })
	sub := mkDir(t, v, v.Root(), "src")
	if err := v.Mount(v.Root(), "m", proto.FID{Volume: 9, Vnode: RootVnode, Uniq: 1}); err != nil {
		t.Fatal(err)
	}
	clone := v.Clone(8, "proj.readonly")
	if de, err := clone.Lookup(clone.Root(), "m"); err != nil || de.FID != (proto.FID{Volume: 9, Vnode: RootVnode, Uniq: 1}) {
		t.Fatalf("clone's mount point = %+v, %v; want volume 9's root", de, err)
	}
	if de, err := clone.Lookup(clone.Root(), "src"); err != nil || de.FID != (proto.FID{Volume: 8, Vnode: sub.Vnode, Uniq: sub.Uniq}) {
		t.Fatalf("clone's src = %+v, %v; want it in volume 8", de, err)
	}
	if rep := clone.Salvage(); rep != (SalvageReport{}) {
		t.Fatalf("salvage of the clone repaired: %+v", rep)
	}
}

func TestSerializeDeserializeRoundTrip(t *testing.T) {
	v := newVol()
	sub := mkDir(t, v, v.Root(), "src")
	mkFile(t, v, sub, "main.c", "int main(){}")
	v.Symlink(v.Root(), "lnk", "/vice/elsewhere")
	v.SetQuota(1 << 20)

	got, err := Deserialize(v.Serialize(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != v.ID() || got.Name() != v.Name() || got.Quota() != v.Quota() || got.Used() != v.Used() {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	de, err := got.Lookup(got.Root(), "src")
	if err != nil {
		t.Fatal(err)
	}
	fde, err := got.Lookup(de.FID, "main.c")
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := got.ReadData(fde.FID)
	if err != nil || string(data) != "int main(){}" {
		t.Fatalf("data = %q %v", data, err)
	}
	if _, err := Deserialize([]byte("garbage"), nil); err == nil {
		t.Fatal("garbage image accepted")
	}
}

func TestSalvageRepairsCorruption(t *testing.T) {
	v := newVol()
	sub := mkDir(t, v, v.Root(), "d")
	mkFile(t, v, sub, "f", "contents")
	usedBefore := v.Used()
	countBefore := v.VnodeCount()

	v.CorruptForTest()
	rep := v.Salvage()
	if rep.OrphansRemoved != 1 {
		t.Errorf("OrphansRemoved = %d, want 1", rep.OrphansRemoved)
	}
	if rep.DanglingEntries != 1 {
		t.Errorf("DanglingEntries = %d, want 1", rep.DanglingEntries)
	}
	if rep.LinksFixed == 0 {
		t.Error("LinksFixed = 0, want >0")
	}
	if !rep.BytesCorrected {
		t.Error("BytesCorrected = false")
	}
	if v.Used() != usedBefore {
		t.Errorf("Used = %d, want %d", v.Used(), usedBefore)
	}
	if v.VnodeCount() != countBefore {
		t.Errorf("VnodeCount = %d, want %d", v.VnodeCount(), countBefore)
	}
	if root, _ := v.Get(v.Root()); root.Status.Size != proto.DirSize(root.Entries) {
		t.Errorf("root Size = %d after dropping the dangling entry, its listing is %d bytes", root.Status.Size, proto.DirSize(root.Entries))
	}
	// A second salvage finds nothing.
	rep = v.Salvage()
	if rep != (SalvageReport{}) {
		t.Errorf("second salvage repaired: %+v", rep)
	}
}

func TestSalvageCleanVolumeIsNoop(t *testing.T) {
	v := newVol()
	sub := mkDir(t, v, v.Root(), "d")
	mkFile(t, v, sub, "f", "x")
	fid := mkFile(t, v, v.Root(), "g", "y")
	v.Link(sub, "g2", fid)
	if rep := v.Salvage(); rep != (SalvageReport{}) {
		t.Fatalf("clean salvage repaired: %+v", rep)
	}
}

// Property: Used always equals the sum of reachable file sizes under random
// create/write/remove sequences.
func TestQuickUsedConsistent(t *testing.T) {
	f := func(ops []struct {
		N    uint8
		Size uint16
		Del  bool
	}) bool {
		v := newVol()
		for _, op := range ops {
			name := fmt.Sprintf("f%d", op.N%8)
			if op.Del {
				v.Remove(v.Root(), name)
				continue
			}
			de, err := v.Lookup(v.Root(), name)
			var fid proto.FID
			if err != nil {
				vn, err := v.Create(v.Root(), name, 0o644, "u")
				if err != nil {
					return false
				}
				fid = vn.Status.FID
			} else {
				fid = de.FID
			}
			if _, err := v.WriteData(fid, make([]byte, op.Size)); err != nil {
				return false
			}
		}
		var sum int64
		rn, _ := v.Get(v.Root())
		for _, de := range rn.Entries {
			vn, err := v.Get(de.FID)
			if err == nil && vn.Status.Type == proto.TypeFile {
				sum += vn.Status.Size
			}
		}
		return sum == v.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialize/deserialize is the identity on the serialized form.
func TestQuickSerializeStable(t *testing.T) {
	f := func(names []string, contents []byte) bool {
		v := newVol()
		for i, n := range names {
			if n == "" || len(n) > 64 {
				continue
			}
			name := fmt.Sprintf("n%d", i)
			vn, err := v.Create(v.Root(), name, 0o644, "u")
			if err != nil {
				return false
			}
			if _, err := v.WriteData(vn.Status.FID, contents); err != nil {
				return false
			}
		}
		img := v.Serialize()
		v2, err := Deserialize(img, nil)
		if err != nil {
			return false
		}
		return bytes.Equal(v2.Serialize(), img)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Every way a name enters a directory — the dispatcher's five are also
// tested where they arrive, in vice; Mount is the operator's — refuses what
// is not one path component, and changes nothing when it does.
func TestNewNameMustBeAName(t *testing.T) {
	v := newVol()
	root := v.Root()
	fid := mkFile(t, v, root, "f", "x")
	foreign := proto.FID{Volume: 9, Vnode: RootVnode, Uniq: 1}
	enter := []struct {
		op string
		fn func(name string) error
	}{
		{"Create", func(n string) error { _, err := v.Create(root, n, 0o644, "satya"); return err }},
		{"MakeDir", func(n string) error { _, err := v.MakeDir(root, n, 0o755, "satya"); return err }},
		{"Symlink", func(n string) error { _, err := v.Symlink(root, n, "/t"); return err }},
		{"Link", func(n string) error { return v.Link(root, n, fid) }},
		{"Mount", func(n string) error { return v.Mount(root, n, foreign) }},
		{"Rename", func(n string) error { return v.Rename(root, "f", root, n) }},
	}
	before, _ := v.Get(root)
	version := before.Status.Version
	for _, e := range enter {
		for _, name := range []string{"", ".", "..", "a/b", "/", "x/"} {
			if err := e.fn(name); !errors.Is(err, proto.ErrBadRequest) {
				t.Errorf("%s(%q) = %v, want ErrBadRequest", e.op, name, err)
			}
		}
	}
	if len(before.Entries) != 1 || before.Status.Version != version {
		t.Fatalf("refusals changed the directory: version %d -> %d, entries %+v", version, before.Status.Version, before.Entries)
	}
	// Names with a dot in them, or made of dots, are still names.
	for i, e := range enter {
		name := fmt.Sprintf("...%d.ok", i)
		if e.op == "Rename" {
			mkFile(t, v, root, "f2", "")
			e.fn = func(n string) error { return v.Rename(root, "f2", root, n) }
		}
		if err := e.fn(name); err != nil {
			t.Errorf("%s(%q): %v", e.op, name, err)
		}
	}
}
