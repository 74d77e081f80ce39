package walstore

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// bigVol returns a volume holding files files of size bytes each. The files
// share one buffer (WriteData keeps a slice that large), so the volume costs
// the test one file of memory however many it holds.
func bigVol(t *testing.T, id uint32, files, size int) *volume.Volume {
	t.Helper()
	return filesVol(t, id, files, bytes.Repeat([]byte("itc-vice"), size/8))
}

// filesVol returns a volume holding files files whose contents are all
// content itself.
func filesVol(t testing.TB, id uint32, files int, content []byte) *volume.Volume {
	t.Helper()
	v := newVol(t, id)
	for i := 0; i < files; i++ {
		vn, err := v.Create(v.Root(), string(rune('a'+i)), 0o644, "satya")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.WriteData(vn.Status.FID, content); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// allocated returns the bytes f allocates, read after a GC so that none of
// an earlier test's garbage is collected inside the window.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointBuildsSnapshotOnce gates the checkpoint path end to end:
// checkpointing a live 16 MiB volume allocates the snapshot file's buffer,
// once, at its exact size, with the volume encoded straight into it.
// Serializing the volume to an image first and copying that into the file, as
// before, took 2 x the image; growing both by doubling, before that, 7.8 x.
// Serialize, which volume moves and release installs still send, is held to
// the same rule: its image is allocated once, at exactly ImageSize.
func TestCheckpointBuildsSnapshotOnce(t *testing.T) {
	s, _ := open(t, store.DirFS(t.TempDir()))
	defer s.Close()
	v := bigVol(t, 3, 4, 4<<20)
	size := v.ImageSize()
	var img []byte
	if n := allocated(func() { img = v.Serialize() }); float64(n) > 1.1*float64(size) {
		t.Fatalf("serializing a %d-byte volume allocated %d (%.2f x), want <= 1.1 x", size, n, float64(n)/float64(size))
	}
	if len(img) != size || cap(img) != size {
		t.Fatalf("image of %d bytes (measured %d) sits in a buffer of %d", len(img), size, cap(img))
	}
	checkpoint := func() {
		if err := s.Checkpoint(store.Checkpoint{Volumes: []*volume.Volume{v}}); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint()
	const runs = 3
	per := float64(allocated(func() {
		for i := 0; i < runs; i++ {
			checkpoint()
		}
	})) / runs
	if per > 1.1*float64(size) {
		t.Fatalf("checkpointing a %d-byte volume allocated %.0f (%.2f x), want <= 1.1 x", size, per, per/float64(size))
	}
}

// TestRecoveryCopiesFilesOnce gates the other half: recovering a checkpointed
// 16 MiB volume allocates the file as read and each file's contents, copied
// once out of it by volume.Deserialize. Copying every image out of the file
// first, as before, took 3.0 x the file.
func TestRecoveryCopiesFilesOnce(t *testing.T) {
	fsys := store.DirFS(t.TempDir())
	s, _ := open(t, fsys)
	v := bigVol(t, 3, 4, 4<<20)
	want := v.Serialize()
	if err := s.Checkpoint(store.Checkpoint{Volumes: []*volume.Volume{v}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	file, err := fsys.ReadFile(ckptName)
	if err != nil {
		t.Fatal(err)
	}
	size := len(file)

	var rec *store.Recovery
	n := allocated(func() { s, rec = open(t, fsys) })
	defer s.Close()
	if len(rec.Volumes) != 1 || !bytes.Equal(rec.Volumes[0].Serialize(), want) {
		t.Fatalf("recovered %d volumes, notes %q", len(rec.Volumes), rec.Report.Notes)
	}
	if per := float64(n) / float64(size); per > 2.2 {
		t.Fatalf("recovering a %d-byte checkpoint allocated %d (%.2f x), want <= 2.2 x", size, n, per)
	}
}

// TestRecoveryDropsUnreadableVolumes opens a checkpoint, intact as a file,
// that holds one good volume, one whose image is cut short and one whose image
// is another volume's. Recovery keeps the good volume and drops the other two,
// each with a note naming it.
func TestRecoveryDropsUnreadableVolumes(t *testing.T) {
	good := filesVol(t, 3, 2, []byte("venus"))
	other := filesVol(t, 5, 1, []byte("vice"))
	want := good.Serialize()

	file := []byte(walMagic)
	file = append(file, frameRecord(1, kindLoc, wire.Marshal(proto.LocInstallArgs{}))...)
	for _, vol := range []struct {
		id    uint32
		image []byte
	}{{3, want}, {4, want[:len(want)/2]}, {6, other.Serialize()}} {
		var body wire.Encoder
		body.U32(vol.id)
		body.Bytes(vol.image)
		file = append(file, frameRecord(1, kindBegin, body.Buf())...)
	}
	file = append(file, frameRecord(1, kindProtSnapshot, nil)...)

	rec := recoverCheckpoint(t, file)
	if len(rec.Volumes) != 1 || !bytes.Equal(rec.Volumes[0].Serialize(), want) {
		t.Fatalf("recovered %d volumes, notes %q", len(rec.Volumes), rec.Report.Notes)
	}
	var dropped []string
	for _, n := range rec.Report.Notes {
		if strings.HasPrefix(n, "checkpoint begin record unusable, dropped: ") {
			dropped = append(dropped, n)
		}
	}
	if len(dropped) != 2 || !strings.Contains(dropped[0], ": volume 4 image ") ||
		!strings.Contains(dropped[1], ": volume 6 image ") {
		t.Fatalf("want notes dropping volumes 4 and 6, got %q", rec.Report.Notes)
	}
}

// TestCheckpointBytesMatchImages compares the file buildCheckpoint encodes
// from live volumes with the one referenceCheckpoint builds through the log's
// append path from their Serialize images: byte for byte, over volumes that
// hold nothing, a tree of directories with access lists, a symlink, a hard
// link, empty files, files on both sides of pooledRecord, and a read-only
// clone sharing its parent's contents. Recovering the file gives back the
// seqno, the volumes' images and both databases.
func TestCheckpointBytesMatchImages(t *testing.T) {
	empty := newVol(t, 3)

	v := newVol(t, 5)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	file := func(dir proto.FID, name string, size int) proto.FID {
		t.Helper()
		vn, err := v.Create(dir, name, 0o644, "satya")
		must(err)
		if size > 0 {
			_, err = v.WriteData(vn.Status.FID, bytes.Repeat([]byte{byte(size)}, size))
			must(err)
		}
		return vn.Status.FID
	}
	src, err := v.MakeDir(v.Root(), "src", 0o755, "satya")
	must(err)
	lib, err := v.MakeDir(src.Status.FID, "lib", 0o755, "bovik")
	must(err)
	acl := prot.NewACL()
	acl.Grant("satya", prot.RightsAll)
	acl.Grant("bovik", prot.RightLookup|prot.RightRead)
	acl.Deny("mallory", prot.RightRead)
	must(v.SetACL(lib.Status.FID, acl))
	file(v.Root(), "empty", 0)
	file(src.Status.FID, "also-empty", 0)
	file(src.Status.FID, "small", 100)
	file(lib.Status.FID, "under", pooledRecord-1)
	big := file(lib.Status.FID, "over", pooledRecord+1)
	file(v.Root(), "large", 3*pooledRecord)
	_, err = v.Symlink(v.Root(), "ln", "src/lib/over")
	must(err)
	must(v.Link(src.Status.FID, "hard", big))

	clone := v.Clone(9, "vol.readonly")
	vols := []*volume.Volume{empty, v, clone}
	protImage := []byte("protection snapshot")
	loc := []proto.LocEntry{
		{Prefix: "/", Volume: 3, Custodian: "s0"},
		{Prefix: "/src", Volume: 5, Custodian: "s1"},
	}

	got := encodeCheckpoint(42, store.Checkpoint{Prot: protImage, Loc: loc, Volumes: vols})
	if want := referenceCheckpoint(42, protImage, loc, vols); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint of live volumes (%d bytes) differs from the log's records of their images (%d bytes)", len(got), len(want))
	}
	rec := recoverCheckpoint(t, got)
	if rec.Report.CheckpointSeq != 42 || len(rec.Volumes) != len(vols) || len(rec.Report.Notes) != 0 {
		t.Fatalf("recovered seq %d, %d volumes, notes %q", rec.Report.CheckpointSeq, len(rec.Volumes), rec.Report.Notes)
	}
	for i, dv := range rec.Volumes {
		if !bytes.Equal(dv.Serialize(), vols[i].Serialize()) {
			t.Fatalf("volume %d does not survive the checkpoint", vols[i].ID())
		}
	}
	if !bytes.Equal(rec.ProtSnapshot, protImage) || len(rec.LocOps) != 1 || !reflect.DeepEqual(rec.LocOps[0].Entries, loc) {
		t.Fatalf("recovered protection %q, location changes %+v", rec.ProtSnapshot, rec.LocOps)
	}
}

// TestLargeImageRoundTrips recovers a volume whose image is just over
// wire.MaxField — no single file is — from a checkpoint and from a begin
// record: the limit on an image inside either is that format's own, not the
// wire's. The checkpoint used to be written, the log truncated, and the
// volume dropped at recovery.
func TestLargeImageRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("moves a few hundred MiB")
	}
	const files, size = 3, 22 << 20
	v := bigVol(t, 3, files, size)
	image := v.Serialize()
	if len(image) <= wire.MaxField {
		t.Fatalf("image is only %d bytes", len(image))
	}
	content, _ := v.DataOf(volume.RootVnode + 1)
	check := func(how string, vols []*volume.Volume, notes []string) {
		t.Helper()
		if len(vols) != 1 || vols[0].VnodeCount() != files+1 {
			t.Fatalf("%s recovered %d volumes, notes %q", how, len(vols), notes)
		}
		for id := volume.RootVnode + 1; id <= volume.RootVnode+files; id++ {
			if got, _ := vols[0].DataOf(id); !bytes.Equal(got, content) {
				t.Fatalf("%s: vnode %d holds %d bytes that differ from what was stored", how, id, len(got))
			}
		}
	}

	fsys := store.NewMemFS()
	s, _ := open(t, fsys)
	if err := s.Checkpoint(store.Checkpoint{Volumes: []*volume.Volume{v}}); err != nil {
		t.Fatal(err)
	}
	_, rec := open(t, fsys)
	check("checkpoint", rec.Volumes, rec.Report.Notes)

	var body wire.Encoder
	body.U32(3)
	body.Bytes(image)
	vols := map[uint32]*volume.Volume{}
	if err := applyRecord(kindBegin, body.Buf(), vols, &store.Recovery{}); err != nil {
		t.Fatalf("begin record: %v", err)
	}
	check("begin record", []*volume.Volume{vols[3]}, nil)
}

// TestCheckpointRefusesUnreadableSnapshot hands Checkpoint a volume whose
// record recovery would not read back. It must fail before anything is
// written, and before the snapshot's buffer is grown: the previous checkpoint
// and the log stay byte for byte as they were, and the store goes on taking
// commits. The bound is the log's, per record: five volumes that together
// hold as much, each under it, checkpoint and recover.
func TestCheckpointRefusesUnreadableSnapshot(t *testing.T) {
	fsys := store.NewMemFS()
	s, _ := open(t, fsys)
	v := workload(t, s)
	if err := s.Checkpoint(store.Checkpoint{Volumes: []*volume.Volume{v}}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutLoc(nil, []string{"/gone"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	ckptBefore, _ := fsys.Bytes(ckptName)
	logBefore, _ := fsys.Bytes(walName)

	// One volume holding five views of one 60 MiB buffer: its record is over
	// maxRecord, each file under wire.MaxField.
	chunk := make([]byte, 60<<20)
	over := store.Checkpoint{Volumes: []*volume.Volume{v, filesVol(t, 10, 5, chunk)}}
	var err error
	if n := allocated(func() { err = s.Checkpoint(over) }); n >= 1<<20 {
		t.Fatalf("refusing the snapshot allocated %d bytes, want < 1 MiB", n)
	}
	if !errors.Is(err, store.ErrTooLarge) {
		t.Fatalf("a snapshot recovery cannot read back: err %v, want store.ErrTooLarge", err)
	}
	if got, _ := fsys.Bytes(ckptName); !bytes.Equal(got, ckptBefore) {
		t.Fatal("refused checkpoint changed the checkpoint file")
	}
	if got, _ := fsys.Bytes(walName); !bytes.Equal(got, logBefore) {
		t.Fatal("refused checkpoint changed the log")
	}
	if err := s.PutLoc(nil, []string{"/still-alive"}); err != nil {
		t.Fatalf("store unusable after a refused checkpoint: %v", err)
	}
	_, rec := open(t, fsys)
	if len(rec.Volumes) != 1 || rec.Report.Replayed != 2 {
		t.Fatalf("after refusal recovered %d volumes, replayed %d", len(rec.Volumes), rec.Report.Replayed)
	}

	if testing.Short() || raceEnabled {
		t.Skip("the rest holds about 1 GiB")
	}
	var five store.Checkpoint
	for id := uint32(10); id < 15; id++ {
		five.Volumes = append(five.Volumes, filesVol(t, id, 1, chunk))
	}
	disk := store.DirFS(t.TempDir()) // the file's bytes stay out of the heap
	s, _ = open(t, disk)
	if err := s.Checkpoint(five); err != nil {
		t.Fatalf("five volumes of 60 MiB: %v", err)
	}
	s.Close()
	_, rec = open(t, disk)
	if len(rec.Volumes) != 5 || len(rec.Report.Notes) != 0 {
		t.Fatalf("recovered %d of 5 volumes, notes %q", len(rec.Volumes), rec.Report.Notes)
	}
	for _, rv := range rec.Volumes {
		if got, _ := rv.DataOf(volume.RootVnode + 1); !bytes.Equal(got, chunk) {
			t.Fatalf("volume %d's file came back as %d bytes that differ", rv.ID(), len(got))
		}
	}
}

// TestAppendRefusesUnreadableRecord pins the same rule for the log: a record
// recovery would take for a torn tail — and drop, with every record after it —
// is refused before it is built, let alone appended. Nothing is written, the
// store is not latched, and what was acknowledged before and after is all
// recovered. Building the 300 MiB record first, as before, allocated all
// 300 MiB of it.
func TestAppendRefusesUnreadableRecord(t *testing.T) {
	fsys := store.NewMemFS()
	s, _ := open(t, fsys)
	workload(t, s)
	logBefore, _ := fsys.Bytes(walName)

	// Five views of one 60 MiB buffer: a commit over maxRecord in total, each
	// file under wire.MaxField.
	chunk := make([]byte, 60<<20)
	over := store.Commit{Vol: 3}
	for vn := uint32(10); vn < 15; vn++ {
		over.Data = append(over.Data, volume.VnodeData{Vnode: vn, Data: chunk})
	}
	var err error
	if n := allocated(func() { err = s.Commit(over) }); n >= 1<<20 {
		t.Fatalf("refusing the record allocated %d bytes, want < 1 MiB", n)
	}
	if !errors.Is(err, store.ErrTooLarge) {
		t.Fatalf("a record recovery cannot read back: err %v, want store.ErrTooLarge", err)
	}
	if got, _ := fsys.Bytes(walName); !bytes.Equal(got, logBefore) {
		t.Fatal("refused record changed the log")
	}
	if err := s.PutLoc(nil, []string{"/still-alive"}); err != nil {
		t.Fatalf("store unusable after a refused record: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	_, rec := open(t, fsys)
	if len(rec.Volumes) != 1 || rec.Report.Replayed != 6 || rec.Report.DiscardedRecords != 0 {
		t.Fatalf("after refusal recovered %d volumes, replayed %d, discarded %d",
			len(rec.Volumes), rec.Report.Replayed, rec.Report.DiscardedRecords)
	}
}
