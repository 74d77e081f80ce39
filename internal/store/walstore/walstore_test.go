package walstore

import (
	"bytes"
	"strings"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
)

func newVol(t testing.TB, id uint32) *volume.Volume {
	t.Helper()
	var tick int64
	acl := prot.NewACL()
	acl.Grant("satya", prot.RightsAll)
	v := volume.New(id, "vol", acl, 0, "satya", func() int64 { tick++; return tick })
	v.EnableDirtyTracking()
	v.TakeDirty()
	return v
}

func open(t *testing.T, fsys store.FS) (*Store, *store.Recovery) {
	t.Helper()
	s, err := Open(fsys)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec, err := s.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return s, rec
}

// workload journals a volume, two file operations, a location entry and a
// protection mutation, syncing after each, and returns the volume.
func workload(t *testing.T, s *Store) *volume.Volume {
	t.Helper()
	v := newVol(t, 3)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.BeginVolume(3, v.Serialize()))
	must(s.Sync())

	vn, err := v.Create(v.Root(), "paper.mss", 0o644, "satya")
	must(err)
	must(s.Commit(store.CommitOf(v)))
	must(s.Sync())

	_, err = v.WriteData(vn.Status.FID, []byte("venice precedes vice"))
	must(err)
	must(s.Commit(store.CommitOf(v)))
	must(s.Sync())

	must(s.PutLoc([]proto.LocEntry{{Prefix: "/", Volume: 3, Custodian: "s0"}}, nil))
	must(s.PutProt(prot.Mutation{Kind: prot.MutAddUser, Name: "bovik"}))
	must(s.Sync())
	return v
}

func TestWALPersistAcrossReopen(t *testing.T) {
	fsys := store.NewMemFS()
	s1, rec1 := open(t, fsys)
	if rec1.Report.Replayed != 0 || len(rec1.Volumes) != 0 {
		t.Fatalf("fresh store not empty: %+v", rec1.Report)
	}
	want := workload(t, s1).Serialize()

	_, rec2 := open(t, fsys)
	if len(rec2.Volumes) != 1 {
		t.Fatalf("recovered %d volumes", len(rec2.Volumes))
	}
	if got := rec2.Volumes[0].Serialize(); !bytes.Equal(got, want) {
		t.Fatal("recovered volume diverged from journalled state")
	}
	if rec2.Report.Replayed != 5 { // begin, commit, commit, loc, prot
		t.Fatalf("Replayed = %d, want 5", rec2.Report.Replayed)
	}
	if rec2.Report.DiscardedRecords != 0 {
		t.Fatalf("clean log discarded %d records", rec2.Report.DiscardedRecords)
	}
	if len(rec2.LocOps) != 1 || len(rec2.ProtMutations) != 1 {
		t.Fatalf("loc=%d prot=%d", len(rec2.LocOps), len(rec2.ProtMutations))
	}
}

func TestWALCheckpointCompacts(t *testing.T) {
	fsys := store.NewMemFS()
	s1, _ := open(t, fsys)
	v := workload(t, s1)
	img := v.Serialize()
	cp := store.Checkpoint{
		Prot:    []byte("prot-snapshot"),
		Loc:     []proto.LocEntry{{Prefix: "/", Volume: 3, Custodian: "s0"}},
		Volumes: []*volume.Volume{v},
	}
	if err := s1.Checkpoint(cp); err != nil {
		t.Fatal(err)
	}
	wal, ok := fsys.Bytes(walName)
	if !ok || string(wal) != walMagic {
		t.Fatalf("log not compacted: %d bytes", len(wal))
	}

	// Post-checkpoint mutations land in the fresh log and replay on top.
	v2 := newVol(t, 9)
	if err := s1.BeginVolume(9, v2.Serialize()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Sync(); err != nil {
		t.Fatal(err)
	}

	_, rec := open(t, fsys)
	if rec.Report.Replayed != 1 || rec.Report.Skipped != 0 {
		t.Fatalf("report after checkpoint: %+v", rec.Report)
	}
	if string(rec.ProtSnapshot) != "prot-snapshot" {
		t.Fatalf("prot snapshot = %q", rec.ProtSnapshot)
	}
	if len(rec.Volumes) != 2 {
		t.Fatalf("recovered %d volumes, want 2", len(rec.Volumes))
	}
	if rec.Volumes[0].ID() != 3 || rec.Volumes[1].ID() != 9 {
		t.Fatalf("volume order: %d, %d", rec.Volumes[0].ID(), rec.Volumes[1].ID())
	}
	if !bytes.Equal(rec.Volumes[0].Serialize(), img) {
		t.Fatal("checkpointed volume diverged")
	}
}

func TestWALRecoverOnce(t *testing.T) {
	s, _ := open(t, store.NewMemFS())
	if _, err := s.Recover(); err == nil {
		t.Fatal("second Recover must fail")
	}
}

func TestWALTornTailDiscardedAndTruncated(t *testing.T) {
	fsys := store.NewMemFS()
	s1, _ := open(t, fsys)
	want := workload(t, s1).Serialize()

	// A torn final record: the header promises more bytes than exist.
	wal, _ := fsys.Bytes(walName)
	clean := len(wal)
	torn := append(append([]byte(nil), wal...), 0xEE, 0xFF, 0x10, 0x00)
	fsys.SetFile(walName, torn)

	_, rec := open(t, fsys)
	if rec.Report.DiscardedRecords != 1 || rec.Report.DiscardedBytes != 4 {
		t.Fatalf("discard accounting: %+v", rec.Report)
	}
	if !bytes.Equal(rec.Volumes[0].Serialize(), want) {
		t.Fatal("torn tail corrupted recovered state")
	}
	// Recovery truncates the torn tail, so the next open is clean.
	wal, _ = fsys.Bytes(walName)
	if len(wal) != clean {
		t.Fatalf("tail not truncated: %d bytes, want %d", len(wal), clean)
	}
	_, rec = open(t, fsys)
	if rec.Report.DiscardedRecords != 0 {
		t.Fatalf("second open still discarding: %+v", rec.Report)
	}
}

func TestWALCorruptCheckpointIgnoredWithNote(t *testing.T) {
	for _, garbage := range []string{"not a checkpoint at all", walMagic + " but not really"} {
		fsys := store.NewMemFS()
		s1, _ := open(t, fsys)
		workload(t, s1)
		fsys.SetFile(ckptName, []byte(garbage))

		_, rec := open(t, fsys)
		if len(rec.Report.Notes) != 1 || !strings.HasPrefix(rec.Report.Notes[0], "checkpoint unreadable, ignored: ") {
			t.Fatalf("%q: want one note about the corrupt checkpoint: %+v", garbage, rec.Report)
		}
		// The log alone still reconstructs everything.
		if len(rec.Volumes) != 1 || rec.Report.Replayed != 5 {
			t.Fatalf("%q: recovery without checkpoint: %+v", garbage, rec.Report)
		}
	}
}

// TestCheckpointWithABadCRCIsIgnoredWhole flips each bit of a checkpoint's
// records in turn, one flip per open. However far into the file the flip
// is, recovery uses none of it: no volume, neither database and no seqno
// come from the checkpoint, and a note says it was ignored.
func TestCheckpointWithABadCRCIsIgnoredWhole(t *testing.T) {
	fsys := store.NewMemFS()
	s, _ := open(t, fsys)
	v := workload(t, s)
	cp := store.Checkpoint{
		Prot:    []byte("prot-snapshot"),
		Loc:     []proto.LocEntry{{Prefix: "/", Volume: 3, Custodian: "s0"}},
		Volumes: []*volume.Volume{v, newVol(t, 4)},
	}
	if err := s.Checkpoint(cp); err != nil {
		t.Fatal(err)
	}
	file, _ := fsys.Bytes(ckptName)
	if rec := recoverCheckpoint(t, file); len(rec.Volumes) != 2 || rec.Report.CheckpointSeq == 0 {
		t.Fatalf("the intact checkpoint recovered %d volumes at seq %d", len(rec.Volumes), rec.Report.CheckpointSeq)
	}
	for bit := 8 * len(walMagic); bit < 8*len(file); bit++ {
		bad := append([]byte(nil), file...)
		bad[bit/8] ^= 1 << (bit % 8)
		rec := recoverCheckpoint(t, bad)
		if len(rec.Volumes) != 0 || rec.ProtSnapshot != nil || len(rec.LocOps) != 0 || rec.Report.CheckpointSeq != 0 ||
			len(rec.Report.Notes) != 1 || !strings.HasPrefix(rec.Report.Notes[0], "checkpoint unreadable, ignored: ") {
			t.Fatalf("bit %d flipped: recovered %d volumes, protection %q, %d location changes, seq %d, notes %q",
				bit, len(rec.Volumes), rec.ProtSnapshot, len(rec.LocOps), rec.Report.CheckpointSeq, rec.Report.Notes)
		}
	}
}

// TestOpenRefusesOldFormats: a log or a checkpoint an earlier build wrote is
// neither read nor taken for damage. Open fails with an error that names the
// format, and both files stay as they were.
func TestOpenRefusesOldFormats(t *testing.T) {
	fsys := store.NewMemFS()
	s, _ := open(t, fsys)
	workload(t, s)
	log, _ := fsys.Bytes(walName)
	if err := s.Checkpoint(store.Checkpoint{}); err != nil {
		t.Fatal(err)
	}
	ckpt, _ := fsys.Bytes(ckptName)
	for _, tc := range []struct{ name, magic string }{{walName, "ITCWAL01"}, {ckptName, "ITCCKP01"}} {
		fsys := store.NewMemFS()
		fsys.SetFile(walName, log)
		fsys.SetFile(ckptName, ckpt)
		old, _ := fsys.Bytes(tc.name)
		old = append([]byte(tc.magic), old[len(walMagic):]...)
		fsys.SetFile(tc.name, old)
		want := map[string][]byte{walName: log, ckptName: ckpt, tc.name: old}

		_, err := Open(fsys)
		if err == nil || !strings.Contains(err.Error(), tc.name) || !strings.Contains(err.Error(), tc.magic) {
			t.Fatalf("%s in the %s format: Open returned %v", tc.name, tc.magic, err)
		}
		for name, b := range want {
			if got, _ := fsys.Bytes(name); !bytes.Equal(got, b) {
				t.Fatalf("refusing %s in the %s format changed %s", tc.name, tc.magic, name)
			}
		}
	}
}

// TestWALSemanticSkipKeepsLaterRecords: a CRC-valid record that is
// semantically unusable — here a commit for a volume the log never began —
// is skipped with a note, not treated as the end of the log. Acked records
// after it for healthy volumes must still replay.
func TestWALSemanticSkipKeepsLaterRecords(t *testing.T) {
	fsys := store.NewMemFS()
	s1, _ := open(t, fsys)
	want := workload(t, s1).Serialize()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s1.Commit(store.Commit{Vol: 99})) // orphan commit: volume unknown
	must(s1.PutLoc([]proto.LocEntry{{Prefix: "/tail", Volume: 3, Custodian: "s0"}}, nil))
	must(s1.Sync())

	_, rec := open(t, fsys)
	if rec.Report.Replayed != 6 { // workload's 5, plus the trailing loc
		t.Fatalf("Replayed = %d, want 6: %+v", rec.Report.Replayed, rec.Report)
	}
	if rec.Report.DiscardedRecords != 0 || rec.Report.DiscardedBytes != 0 {
		t.Fatalf("semantic rejection truncated the log: %+v", rec.Report)
	}
	if len(rec.LocOps) != 2 {
		t.Fatalf("loc op after the unusable record lost: have %d", len(rec.LocOps))
	}
	if len(rec.Volumes) != 1 || !bytes.Equal(rec.Volumes[0].Serialize(), want) {
		t.Fatal("healthy volume damaged by the skip")
	}
	noted := false
	for _, n := range rec.Report.Notes {
		if strings.Contains(n, "unusable, skipped") {
			noted = true
		}
	}
	if !noted {
		t.Fatalf("no note about the skipped record: %q", rec.Report.Notes)
	}

	// The skipped record stays in the log, so a second recovery reads the
	// same bytes and must say exactly the same thing.
	_, rec2 := open(t, fsys)
	if rec.Report.String() != rec2.Report.String() {
		t.Fatalf("skip not deterministic:\n--- a\n%s--- b\n%s", rec.Report.String(), rec2.Report.String())
	}
}

// TestWALCloseLatchesError: shutdown closes the store while RPC handlers may
// still be mid-mutate; a racing Commit/Sync/Checkpoint must get an error
// back, not dereference the nil log handle.
func TestWALCloseLatchesError(t *testing.T) {
	s, _ := open(t, store.NewMemFS())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(store.Commit{Vol: 3}); err == nil {
		t.Fatal("Commit after Close returned nil")
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync after Close returned nil")
	}
	if err := s.Checkpoint(store.Checkpoint{}); err == nil {
		t.Fatal("Checkpoint after Close returned nil")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSalvageDeterminism runs recovery twice over byte-identical on-disk
// state — including a volume needing repair — and requires byte-identical
// salvage reports, the same bar TestE15Determinism sets for telemetry.
func TestSalvageDeterminism(t *testing.T) {
	image := func() []byte {
		fsys := store.NewMemFS()
		s, _ := open(t, fsys)
		v := newVol(t, 3)
		if _, err := v.Create(v.Root(), "f", 0o644, "satya"); err != nil {
			t.Fatal(err)
		}
		v.CorruptForTest()
		if err := s.BeginVolume(3, v.Serialize()); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		wal, _ := fsys.Bytes(walName)
		return wal
	}()

	run := func() string {
		fsys := store.NewMemFS()
		fsys.SetFile(walName, append([]byte(nil), image...))
		_, rec := open(t, fsys)
		return rec.Report.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("salvage reports differ between identical runs:\n--- a\n%s--- b\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty salvage report")
	}
}
