package walstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// twins are two volumes put through the same operations: one is journalled
// by the code under test, the other by the reference.
type twins struct {
	t    *testing.T
	rng  *rand.Rand
	vols [2]*volume.Volume
	ref  referenceJournal // journals vols[1]

	dirs  []proto.FID // every directory, the root first
	names []dirName   // every name the driver has made and not removed
	seq   int         // makes fresh names
}

type dirName struct {
	dir  proto.FID
	name string
	fid  proto.FID
	typ  proto.FileType
}

const twinQuota = 64 << 10

func newTwins(t *testing.T, seed int64) *twins {
	tw := &twins{t: t, rng: rand.New(rand.NewSource(seed))}
	for i := range tw.vols {
		var tick int64
		acl := prot.NewACL()
		acl.Grant("satya", prot.RightsAll)
		v := volume.New(3, "vol", acl, twinQuota, "satya", func() int64 { tick++; return tick })
		v.EnableDirtyTracking()
		v.TakeDirty()
		tw.vols[i] = v
	}
	tw.ref.commitOf(tw.vols[1])
	tw.dirs = []proto.FID{tw.vols[0].Root()}
	return tw
}

// both applies op to each twin; they must agree on the outcome.
func (tw *twins) both(op func(v *volume.Volume) (proto.FID, error)) (proto.FID, error) {
	fid, err := op(tw.vols[0])
	fid2, err2 := op(tw.vols[1])
	if fid != fid2 || (err == nil) != (err2 == nil) {
		tw.t.Fatalf("twins diverged: %v %v / %v %v", fid, err, fid2, err2)
	}
	return fid, err
}

func (tw *twins) fresh(prefix string) string {
	tw.seq++
	return fmt.Sprintf("%s%d", prefix, tw.seq)
}

func (tw *twins) anyDir() proto.FID { return tw.dirs[tw.rng.Intn(len(tw.dirs))] }

// pick returns the index of a random name that want accepts, or -1.
func (tw *twins) pick(want func(dirName) bool) int {
	for _, i := range tw.rng.Perm(len(tw.names)) {
		if want(tw.names[i]) {
			return i
		}
	}
	return -1
}

func created(vn *volume.Vnode, err error) (proto.FID, error) {
	if err != nil {
		return proto.FID{}, err
	}
	return vn.Status.FID, nil
}

// step performs one random operation on both twins and reports what it did.
// An operation may fail (a rename under itself, a write over quota): the
// twins fail alike, and what the failure left dirty is journalled like
// anything else.
func (tw *twins) step() string {
	isFile := func(n dirName) bool { return n.typ == proto.TypeFile }
	notDir := func(n dirName) bool { return n.typ != proto.TypeDir }
	switch k := tw.rng.Intn(12); k {
	case 0, 1: // create
		dir, name := tw.anyDir(), tw.fresh("f")
		fid, err := tw.both(func(v *volume.Volume) (proto.FID, error) { return created(v.Create(dir, name, 0o644, "satya")) })
		if err == nil {
			tw.names = append(tw.names, dirName{dir, name, fid, proto.TypeFile})
		}
		return "create"
	case 2, 3: // write
		i := tw.pick(isFile)
		if i < 0 {
			return "write (nothing to write)"
		}
		data := make([]byte, tw.rng.Intn(3000))
		tw.rng.Read(data)
		tw.both(func(v *volume.Volume) (proto.FID, error) { return created(v.WriteData(tw.names[i].fid, data)) })
		return "write"
	case 4: // mkdir
		dir, name := tw.anyDir(), tw.fresh("d")
		fid, err := tw.both(func(v *volume.Volume) (proto.FID, error) { return created(v.MakeDir(dir, name, 0o755, "satya")) })
		if err == nil {
			tw.names = append(tw.names, dirName{dir, name, fid, proto.TypeDir})
			tw.dirs = append(tw.dirs, fid)
		}
		return "mkdir"
	case 5, 6: // rename, usually across directories
		i := tw.pick(func(dirName) bool { return true })
		if i < 0 {
			return "rename (nothing to rename)"
		}
		n, to, name := tw.names[i], tw.anyDir(), tw.fresh("r")
		_, err := tw.both(func(v *volume.Volume) (proto.FID, error) {
			return proto.FID{}, v.Rename(n.dir, n.name, to, name)
		})
		if err == nil {
			tw.names[i].dir, tw.names[i].name = to, name
		}
		return fmt.Sprintf("rename (%v)", err)
	case 7: // remove a file, a link or a symlink
		i := tw.pick(notDir)
		if i < 0 {
			return "remove (nothing to remove)"
		}
		n := tw.names[i]
		if _, err := tw.both(func(v *volume.Volume) (proto.FID, error) { return proto.FID{}, v.Remove(n.dir, n.name) }); err == nil {
			tw.names = append(tw.names[:i], tw.names[i+1:]...)
		}
		return "remove"
	case 8: // setacl, with negative rights, sometimes more names than fit the stack array
		acl := prot.NewACL()
		for j := tw.rng.Intn(14); j >= 0; j-- {
			acl.Grant(fmt.Sprintf("user%d", tw.rng.Intn(40)), prot.Right(1+tw.rng.Intn(63)))
		}
		for j := tw.rng.Intn(11); j > 0; j-- {
			acl.Deny(fmt.Sprintf("user%d", tw.rng.Intn(40)), prot.Right(1+tw.rng.Intn(63)))
		}
		dir := tw.anyDir()
		tw.both(func(v *volume.Volume) (proto.FID, error) { return proto.FID{}, v.SetACL(dir, acl) })
		return "setacl"
	case 9: // hard link or symlink
		dir, name := tw.anyDir(), tw.fresh("l")
		if i := tw.pick(isFile); i >= 0 && tw.rng.Intn(2) == 0 {
			target := tw.names[i].fid
			if _, err := tw.both(func(v *volume.Volume) (proto.FID, error) { return proto.FID{}, v.Link(dir, name, target) }); err == nil {
				tw.names = append(tw.names, dirName{dir, name, target, proto.TypeFile})
			}
			return "link"
		}
		fid, err := tw.both(func(v *volume.Volume) (proto.FID, error) { return created(v.Symlink(dir, name, "/vice/"+name)) })
		if err == nil {
			tw.names = append(tw.names, dirName{dir, name, fid, proto.TypeSymlink})
		}
		return "symlink"
	case 10: // a store that fails half way: the file is created, its contents refused
		dir, name := tw.anyDir(), tw.fresh("q")
		var made proto.FID
		_, err := tw.both(func(v *volume.Volume) (proto.FID, error) {
			vn, err := v.Create(dir, name, 0o644, "satya")
			if err != nil {
				return proto.FID{}, err
			}
			made = vn.Status.FID
			_, err = v.WriteData(made, make([]byte, twinQuota+1))
			return proto.FID{}, err
		})
		if !errors.Is(err, proto.ErrQuota) {
			tw.t.Fatalf("over-quota store: %v", err)
		}
		tw.names = append(tw.names, dirName{dir, name, made, proto.TypeFile})
		return "failed store"
	default: // rmdir of a directory the driver knows to be empty
		i := tw.pick(func(n dirName) bool {
			return n.typ == proto.TypeDir && tw.pick(func(m dirName) bool { return m.dir == n.fid }) < 0
		})
		if i < 0 {
			return "rmdir (no empty directory)"
		}
		n := tw.names[i]
		if _, err := tw.both(func(v *volume.Volume) (proto.FID, error) { return proto.FID{}, v.RemoveDir(n.dir, n.name) }); err == nil {
			tw.names = append(tw.names[:i], tw.names[i+1:]...)
			for j, d := range tw.dirs {
				if d == n.fid {
					tw.dirs = append(tw.dirs[:j], tw.dirs[j+1:]...)
					break
				}
			}
		}
		return "rmdir"
	}
}

// TestCommitMatchesReference is byte identity against the commit path
// written plainly (commit_reference_test.go), over seeded random histories:
// metadata records, contents, and each directory's edit exactly the names
// whose entries changed. After every operation
// the volume under test is drained by store.CommitOf and its twin by the
// reference; the two commits must encode alike. The commit then goes to a
// store, and once Store.Commit has returned every byte the commit borrowed
// from the volume's scratch is scribbled over — the next operation reuses it
// anyway. At the end the log must hold exactly the reference's commits in
// the production framing, and recovery must rebuild the volume from it.
func TestCommitMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		tw := newTwins(t, seed)
		fsys := store.NewMemFS()
		s, _ := open(t, fsys)
		if err := s.BeginVolume(3, tw.vols[0].Serialize()); err != nil {
			t.Fatal(err)
		}
		wal, _ := fsys.Bytes(walName)
		want := append([]byte(nil), wal...)
		seq := uint64(1)
		for i := 0; i < 400; i++ {
			what := tw.step()
			// Now and then the volume is drained twice with nothing between:
			// the second commit is empty and is journalled too.
			for drains := 1 + tw.rng.Intn(8)/7; drains > 0; drains-- {
				c := store.CommitOf(tw.vols[0])
				ref := wire.Marshal(tw.ref.commitOf(tw.vols[1]))
				if got := wire.Marshal(c); !bytes.Equal(got, ref) {
					t.Fatalf("seed %d op %d (%s): the commit (%d bytes encoded) and the reference's (%d) differ", seed, i, what, len(got), len(ref))
				}
				if err := s.Commit(c); err != nil {
					t.Fatal(err)
				}
				for j := range c.Deletes {
					c.Deletes[j] = 0xdeadbeef
				}
				for _, m := range c.Meta {
					for j := range m.Meta {
						m.Meta[j] = 0xaa
					}
				}
				for _, ed := range c.Dirs {
					clear(ed.Insert)
					clear(ed.Remove)
				}
				seq++
				want = append(want, frameRecord(seq, kindCommit, ref)...)
			}
		}
		if got, _ := fsys.Bytes(walName); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the log differs from the reference commits in production framing", seed)
		}
		if len(tw.dirs) < 3 || len(tw.names) < 20 {
			t.Fatalf("seed %d: history ended with %d directories and %d names; the driver is not exercising the tree", seed, len(tw.dirs), len(tw.names))
		}
		s.Close()
		_, rec := open(t, fsys)
		if len(rec.Volumes) != 1 || !bytes.Equal(rec.Volumes[0].Serialize(), tw.vols[0].Serialize()) {
			t.Fatalf("seed %d: recovery did not rebuild the volume from the log", seed)
		}
		if rec.Report.DiscardedRecords != 0 || len(rec.Report.Notes) != 0 {
			t.Fatalf("seed %d: recovery report: %v", seed, rec.Report.Lines())
		}
	}
}
