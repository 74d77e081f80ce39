package walstore

import (
	"bytes"
	"runtime"
	"testing"

	"itcfs/internal/store"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// bigVol returns a volume holding files files of size bytes each. The files
// share one buffer (WriteData keeps a slice that large), so the volume costs
// the test one file of memory however many it holds.
func bigVol(t *testing.T, id uint32, files, size int) *volume.Volume {
	t.Helper()
	v := newVol(t, id)
	content := bytes.Repeat([]byte("itc-vice"), size/8)
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

// TestCheckpointBuildsSnapshotOnce gates the checkpoint path end to end:
// serializing a 16 MiB volume and checkpointing it allocates the image and
// the snapshot file's buffer, each once at its exact size. Growing both by
// doubling and then copying each whole, as before, took 7.8 x the image.
func TestCheckpointBuildsSnapshotOnce(t *testing.T) {
	s, _ := open(t, store.DirFS(t.TempDir()))
	defer s.Close()
	v := bigVol(t, 3, 4, 4<<20)
	size := len(v.Serialize())
	checkpoint := func() {
		img := v.Serialize()
		if len(img) != cap(img) {
			t.Fatalf("image of %d bytes sits in a buffer of %d", len(img), cap(img))
		}
		if err := s.Checkpoint(store.Checkpoint{Volumes: []store.VolumeImage{{ID: 3, Image: img}}}); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		checkpoint()
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / runs; per > 2.2*float64(size) {
		t.Fatalf("checkpointing a %d-byte volume allocated %.0f (%.1f x), want <= 2.2 x", size, per, per/float64(size))
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
	if err := s.Checkpoint(store.Checkpoint{Volumes: []store.VolumeImage{{ID: 3, Image: image}}}); err != nil {
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

// TestCheckpointRefusesUnreadableSnapshot hands Checkpoint more than recovery
// would read back. It must fail before anything is written: the previous
// checkpoint and the log stay byte for byte as they were, and the store goes
// on taking commits.
func TestCheckpointRefusesUnreadableSnapshot(t *testing.T) {
	fsys := store.NewMemFS()
	s, _ := open(t, fsys)
	img := workload(t, s)
	if err := s.Checkpoint(store.Checkpoint{Volumes: []store.VolumeImage{{ID: 3, Image: img}}}); err != nil {
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

	// Five views of one 60 MiB buffer: over maxRecord in total, each under it.
	chunk := make([]byte, 60<<20)
	var over store.Checkpoint
	for id := uint32(10); id < 15; id++ {
		over.Volumes = append(over.Volumes, store.VolumeImage{ID: id, Image: chunk})
	}
	if err := s.Checkpoint(over); err == nil {
		t.Fatal("a snapshot recovery cannot read back was accepted")
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
}

// TestAppendRefusesUnreadableRecord pins the same rule for the log: a record
// recovery would take for a torn tail — and drop, with every record after it —
// is refused before it is appended. Nothing is written, the store is not
// latched, and what was acknowledged before and after is all recovered.
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
		over.Data = append(over.Data, store.VnodeData{Vnode: vn, Data: chunk})
	}
	if err := s.Commit(over); err == nil {
		t.Fatal("a record recovery cannot read back was appended")
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
