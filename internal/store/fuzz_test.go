package store

import (
	"bytes"
	"reflect"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// FuzzDecodeCommit feeds arbitrary bytes to the commit decoder, the reader
// of every commit in the log, directory edits included. It must never panic;
// a commit it accepts must encode, to EncodedSize bytes, and decode back to
// itself; and replaying
// one onto a volume, even one that fails part way, must be idempotent: a
// second replay leaves the volume as the first did.
func FuzzDecodeCommit(f *testing.F) {
	v := volume.New(7, "fuzz", prot.NewACL(), 0, "satya", nil)
	v.EnableDirtyTracking()
	v.TakeDirty()
	dir, _ := v.MakeDir(v.Root(), "d", 0o755, "satya")
	file, _ := v.Create(dir.Status.FID, "f", 0o644, "satya")
	_, _ = v.WriteData(file.Status.FID, []byte("contents"))
	f.Add(wire.Marshal(CommitOf(v)))
	_ = v.Rename(dir.Status.FID, "f", v.Root(), "g")
	f.Add(wire.Marshal(CommitOf(v)))
	f.Add(wire.Marshal(Commit{Vol: 7, Dirs: []volume.DirEdit{{Vnode: 1,
		Insert: []proto.DirEntry{{Name: "a", FID: proto.FID{Volume: 7, Vnode: 9, Uniq: 9}, Type: proto.TypeFile}},
		Remove: []string{"b"}}}}))

	f.Fuzz(func(t *testing.T, in []byte) {
		d := wire.NewDecoder(in)
		c := DecodeCommit(d)
		if d.Close() != nil {
			return
		}
		enc := wire.Marshal(c)
		if len(enc) != c.EncodedSize() {
			t.Fatalf("commit encodes to %d bytes, EncodedSize says %d", len(enc), c.EncodedSize())
		}
		again := wire.NewDecoder(enc)
		if c2 := DecodeCommit(again); again.Close() != nil || !reflect.DeepEqual(c, c2) {
			t.Fatalf("commit does not survive encoding:\n%+v\n%+v", c, c2)
		}
		vol := volume.New(c.Vol, "fuzz", prot.NewACL(), 0, "satya", nil)
		err1 := ApplyCommit(vol, c)
		once := vol.Serialize()
		err2 := ApplyCommit(vol, c)
		if (err1 == nil) != (err2 == nil) || !bytes.Equal(once, vol.Serialize()) {
			t.Fatalf("a second replay differs from the first: %v, %v", err1, err2)
		}
	})
}
