package store

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

func newVol(t *testing.T) *volume.Volume {
	t.Helper()
	var tick int64
	acl := prot.NewACL()
	acl.Grant("satya", prot.RightsAll)
	v := volume.New(7, "user.satya", acl, 0, "satya", func() int64 { tick++; return tick })
	v.EnableDirtyTracking()
	v.TakeDirty() // discard the bootstrap root marks
	return v
}

func TestCommitRoundTrip(t *testing.T) {
	c := Commit{
		Vol:     7,
		Hdr:     volume.Header{Next: 9, Uniq: 12, Used: 345, Quota: 1 << 20, Online: true},
		Deletes: []uint32{3, 5},
		Meta:    []volume.VnodeMeta{{Vnode: 2, Meta: []byte("meta-bytes")}},
		Data:    []volume.VnodeData{{Vnode: 2, Data: []byte("contents")}, {Vnode: 4, Data: nil}},
		Dirs: []volume.DirEdit{
			{Vnode: 1, Insert: []proto.DirEntry{{Name: "a", FID: proto.FID{Volume: 7, Vnode: 2, Uniq: 3}, Type: proto.TypeFile}}, Remove: []string{"b", "c"}},
			{Vnode: 6, Insert: []proto.DirEntry{}, Remove: []string{"d"}},
		},
	}
	var e wire.Encoder
	c.Encode(&e)
	d := wire.NewDecoder(e.Buf())
	got := DecodeCommit(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Vol != c.Vol || got.Hdr != c.Hdr ||
		!reflect.DeepEqual(got.Deletes, c.Deletes) ||
		!reflect.DeepEqual(got.Meta, c.Meta) ||
		!reflect.DeepEqual(got.Dirs, c.Dirs) ||
		got.Data[0].Vnode != 2 || string(got.Data[0].Data) != "contents" ||
		got.Data[1].Vnode != 4 || len(got.Data[1].Data) != 0 {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

// TestDecodeCommitRejectsGarbage: garbage fails, and so does a commit cut
// short anywhere in its edits, or ending before its edit list as the first
// form of the log wrote commits.
func TestDecodeCommitRejectsGarbage(t *testing.T) {
	c := Commit{Vol: 7, Meta: []volume.VnodeMeta{{Vnode: 2, Meta: []byte("m")}},
		Dirs: []volume.DirEdit{{Vnode: 1, Remove: []string{"x"}}}}
	full := wire.Marshal(c)
	noEdits := wire.Marshal(Commit{Vol: 7, Meta: c.Meta})
	for _, in := range [][]byte{nil, {1}, bytes.Repeat([]byte{0xff}, 16),
		full[:len(full)-1], full[:len(full)-8], noEdits[:len(noEdits)-4]} {
		d := wire.NewDecoder(in)
		DecodeCommit(d)
		if d.Close() == nil {
			t.Fatalf("DecodeCommit(%x): want decode error", in)
		}
	}
}

// TestApplyCommitReplaysMutations drives a volume through every mutation
// class, captures one commit per operation, and replays them onto a shadow
// copy: the shadow must end byte-identical to the original.
func TestApplyCommitReplaysMutations(t *testing.T) {
	v := newVol(t)
	shadow, err := volume.Deserialize(v.Serialize(), nil)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := volume.Deserialize(v.Serialize(), nil)
	if err != nil {
		t.Fatal(err)
	}

	step := func(name string, fn func() error) {
		t.Helper()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := CommitOf(v)
		if c.Vol != v.ID() {
			t.Fatalf("%s: commit for volume %d", name, c.Vol)
		}
		// Replay is idempotent: the second shadow takes every commit twice.
		for _, sh := range []*volume.Volume{shadow, twice, twice} {
			if err := ApplyCommit(sh, c); err != nil {
				t.Fatalf("%s: replay: %v", name, err)
			}
		}
	}

	root := v.Root()
	var file, dir proto.FID
	step("create", func() error {
		vn, err := v.Create(root, "paper.mss", 0o644, "satya")
		if err == nil {
			file = vn.Status.FID
		}
		return err
	})
	step("write", func() error { _, err := v.WriteData(file, []byte("scale governs")); return err })
	step("mkdir", func() error {
		vn, err := v.MakeDir(root, "drafts", 0o755, "satya")
		if err == nil {
			dir = vn.Status.FID
		}
		return err
	})
	step("symlink", func() error { _, err := v.Symlink(dir, "latest", "/paper.mss"); return err })
	step("link", func() error { return v.Link(dir, "copy", file) })
	step("rename", func() error { return v.Rename(root, "paper.mss", dir, "paper-v2.mss") })
	step("setmode", func() error { return v.SetMode(file, 0o600) })
	step("setowner", func() error { return v.SetOwner(file, "bovik") })
	step("setacl", func() error {
		acl := prot.NewACL()
		acl.Grant("bovik", prot.RightRead)
		return v.SetACL(dir, acl)
	})
	step("remove", func() error { return v.Remove(dir, "latest") })
	step("rmdir", func() error {
		if err := v.Remove(dir, "copy"); err != nil {
			return err
		}
		if err := v.Remove(dir, "paper-v2.mss"); err != nil {
			return err
		}
		return v.RemoveDir(root, "drafts")
	})

	for _, sh := range []*volume.Volume{shadow, twice} {
		if got, want := sh.Serialize(), v.Serialize(); !bytes.Equal(got, want) {
			t.Fatalf("shadow diverged after replay:\n got %d bytes\nwant %d bytes", len(got), len(want))
		}
	}
}

func TestApplyCommitWrongVolume(t *testing.T) {
	v := newVol(t)
	if err := ApplyCommit(v, Commit{Vol: v.ID() + 1}); err == nil {
		t.Fatal("want volume-ID mismatch error")
	}
}

func TestReportLinesSortedAndStable(t *testing.T) {
	rep := Report{
		CheckpointSeq: 4, LastSeq: 9, Replayed: 5, Skipped: 1,
		DiscardedRecords: 2, DiscardedBytes: 37,
		Notes: []string{"zeta", "alpha"},
		Volumes: []VolumeReport{
			{ID: 9, Name: "b", Vnodes: 3},
			{ID: 2, Name: "a", Vnodes: 1},
		},
	}
	a, b := rep.String(), rep.String()
	if a != b {
		t.Fatal("Report.String not stable")
	}
	lines := rep.Lines()
	if len(lines) != 5 {
		t.Fatalf("lines = %q", lines)
	}
	if lines[1] != "note: alpha" || lines[2] != "note: zeta" {
		t.Fatalf("notes not sorted: %q", lines)
	}
	if !bytes.Contains([]byte(lines[3]), []byte("volume 2")) ||
		!bytes.Contains([]byte(lines[4]), []byte("volume 9")) {
		t.Fatalf("volumes not sorted: %q", lines)
	}
}

// --- FaultFS ---

// faultWorkload appends three records and syncs after each, returning the
// synced bytes acknowledged so far at each step.
func faultWorkload(fsys FS) (acked [][]byte, err error) {
	f, err := fsys.Open("wal")
	if err != nil {
		return nil, err
	}
	var all []byte
	for _, chunk := range [][]byte{[]byte("alpha-"), []byte("beta-"), []byte("gamma")} {
		if err := f.Append(chunk); err != nil {
			return acked, err
		}
		if err := f.Sync(); err != nil {
			return acked, err
		}
		all = append(all, chunk...)
		acked = append(acked, append([]byte(nil), all...))
	}
	return acked, f.Close()
}

func TestFaultFSNoCrashMatchesMemFS(t *testing.T) {
	f := NewFaultFS(1, 0)
	acked, err := faultWorkload(f)
	if err != nil {
		t.Fatal(err)
	}
	if f.Events() == 0 {
		t.Fatal("no durability events counted")
	}
	got, err := f.Survivors().ReadFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, acked[len(acked)-1]) {
		t.Fatalf("survivors = %q", got)
	}
}

func TestFaultFSDeterministicPerSeed(t *testing.T) {
	events := func() int {
		f := NewFaultFS(1, 0)
		_, _ = faultWorkload(f)
		return f.Events()
	}()
	for crashAt := 1; crashAt <= events; crashAt++ {
		var imgs [2][]byte
		for run := 0; run < 2; run++ {
			f := NewFaultFS(42, crashAt)
			_, err := faultWorkload(f)
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("crashAt=%d: err = %v", crashAt, err)
			}
			img, rerr := f.Survivors().ReadFile("wal")
			if rerr != nil {
				img = nil
			}
			imgs[run] = img
		}
		if !bytes.Equal(imgs[0], imgs[1]) {
			t.Fatalf("crashAt=%d: survivors differ between identical runs", crashAt)
		}
	}
}

func TestFaultFSStrictKeepsExactSyncedPrefix(t *testing.T) {
	// At every crash point, strict survivors must hold exactly the bytes
	// acked by the last completed sync — nothing from the unsynced tail.
	f := NewFaultFS(7, 0)
	if _, err := faultWorkload(f); err != nil {
		t.Fatal(err)
	}
	events := f.Events()
	for crashAt := 1; crashAt <= events; crashAt++ {
		f := NewFaultFS(7, crashAt)
		f.Strict = true
		acked, err := faultWorkload(f)
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("crashAt=%d: err = %v", crashAt, err)
		}
		var want []byte
		if len(acked) > 0 {
			want = acked[len(acked)-1]
		}
		got, rerr := f.Survivors().ReadFile("wal")
		if rerr != nil {
			got = nil
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("crashAt=%d: strict survivors = %q, want acked prefix %q", crashAt, got, want)
		}
	}
}

func TestFaultFSPostCrashOpsFail(t *testing.T) {
	f := NewFaultFS(3, 1)
	if _, err := faultWorkload(f); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v", err)
	}
	if err := f.WriteFileAtomic("x", []byte("y")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: %v", err)
	}
}

func TestMemFSAtomicWriteAndTruncate(t *testing.T) {
	m := NewMemFS()
	if err := m.WriteFileAtomic("ckpt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	b, err := m.ReadFile("ckpt")
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if err := m.Truncate("ckpt", 2); err != nil {
		t.Fatal(err)
	}
	if b, _ := m.ReadFile("ckpt"); string(b) != "he" {
		t.Fatalf("after truncate: %q", b)
	}
	if err := m.Remove("ckpt"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile("ckpt"); err == nil {
		t.Fatal("read after remove succeeded")
	}
	if err := m.Remove("ckpt"); err != nil {
		t.Fatalf("second remove: %v", err)
	}
}

// TestMemFSTruncateGivesMemoryBack: a log cut back to its magic, as a
// checkpoint cuts it, keeps nothing of the array its appends grew, while a
// cut that keeps most of a file keeps its array. Grow gives room that the
// next appends use without allocating.
func TestMemFSTruncateGivesMemoryBack(t *testing.T) {
	m := NewMemFS()
	f, err := m.Open("log")
	if err != nil {
		t.Fatal(err)
	}
	held := func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return cap(m.files["log"])
	}
	chunk := make([]byte, 256<<10)
	for range 16 { // 4 MiB
		if err := f.Append(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Truncate("log", 3<<20); err != nil {
		t.Fatal(err)
	}
	if got := held(); got < 4<<20 {
		t.Fatalf("a cut to 3 of 4 MiB left a %d-byte array, want the file's own", got)
	}
	if err := m.Truncate("log", 8); err != nil {
		t.Fatal(err)
	}
	if got := held(); got > 64 {
		t.Fatalf("a log cut to its 8-byte magic holds a %d-byte array", got)
	}
	m.Grow("log", 1<<20)
	if n := testing.AllocsPerRun(4, func() { f.Append(chunk[:1024]) }); n != 0 {
		t.Fatalf("an append into room Grow gave allocated %v objects", n)
	}
	if b, _ := m.ReadFile("log"); len(b) != 8+5*1024 {
		t.Fatalf("log holds %d bytes, want %d", len(b), 8+5*1024)
	}
}

// TestAppendDoesNotRetainItsArgument holds every FS to File.Append's
// contract: walstore builds the next record in the buffer it just appended,
// so a file that kept the slice (or wrote through it) would journal garbage.
func TestAppendDoesNotRetainItsArgument(t *testing.T) {
	for name, fsys := range map[string]FS{
		"DirFS":   DirFS(t.TempDir()),
		"MemFS":   NewMemFS(),
		"FaultFS": NewFaultFS(1, 0),
	} {
		f, err := fsys.Open("log")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf := []byte("first record ")
		want := append([]byte(nil), buf...)
		if err := f.Append(buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("%s: Append modified its argument", name)
		}
		copy(buf, "SECOND RECORD") // the caller reuses its buffer
		want = append(want, buf...)
		if err := f.Append(buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range buf {
			buf[i] = 0xff
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := fsys.ReadFile("log")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: file holds %q after its appended buffer was overwritten, want %q", name, got, want)
		}
		f.Close()
	}
}

// TestApplyCommitReplaysSalvage: what salvage repairs in a journalled
// volume — a dangling entry dropped from its directory, an orphan removed, a
// link count and the byte total set right — is one commit, and replaying it
// onto a copy taken before the repair makes the copy the repaired volume.
func TestApplyCommitReplaysSalvage(t *testing.T) {
	v := newVol(t)
	if _, err := v.Create(v.Root(), "kept", 0o644, "satya"); err != nil {
		t.Fatal(err)
	}
	v.CorruptForTest()
	CommitOf(v)
	shadow, err := volume.Deserialize(v.Serialize(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep := v.Salvage(); rep.DanglingEntries != 1 || rep.OrphansRemoved != 1 {
		t.Fatalf("salvage repaired %+v", rep)
	}
	if err := ApplyCommit(shadow, CommitOf(v)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shadow.Serialize(), v.Serialize()) {
		t.Fatal("the replayed repair differs from the salvaged volume")
	}
}
