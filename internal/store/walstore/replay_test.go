package walstore

import (
	"bytes"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
)

// TestReplayOfMixedRecordsEqualsTheLiveVolumes journals seeded random
// histories of two volumes through one log that holds every kind of record:
// volume beginnings and a drop, location and protection changes, a
// checkpoint part way, and commits that carry each directory's edit.
// Recovery must rebuild each volume byte for byte as it lives.
func TestReplayOfMixedRecordsEqualsTheLiveVolumes(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tw := newTwins(t, seed) // vols[0] is journalled; vols[1] only follows
		other := newVol(t, 5)
		fsys := store.NewMemFS()
		s, _ := open(t, fsys)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		must(s.BeginVolume(3, tw.vols[0].Serialize()))
		must(s.BeginVolume(5, other.Serialize()))
		must(s.BeginVolume(6, newVol(t, 6).Serialize()))
		for i := 0; i < 300; i++ {
			tw.step()
			tw.vols[1].TakeDirty()
			must(s.Commit(store.CommitOf(tw.vols[0])))
			switch i {
			case 40, 200:
				must(s.PutLoc([]proto.LocEntry{{Prefix: "/u", Volume: 3, Custodian: "s0"}}, nil))
				must(s.PutProt(prot.Mutation{Kind: prot.MutAddUser, Name: "howard"}))
			case 100:
				must(s.DropVolume(6))
			case 150:
				must(s.Checkpoint(store.Checkpoint{Volumes: []*volume.Volume{tw.vols[0], other}}))
			}
			if i%25 == 0 {
				if _, err := other.Create(other.Root(), tw.fresh("o"), 0o644, "satya"); err != nil {
					t.Fatal(err)
				}
				must(s.Commit(store.CommitOf(other)))
			}
		}
		must(s.Sync())
		s.Close()
		_, rec := open(t, fsys)
		// The checkpoint's whole location database (empty), then the change
		// after it.
		if len(rec.ProtMutations) != 1 || len(rec.LocOps) != 2 || len(rec.LocOps[0].Entries) != 0 {
			t.Fatalf("seed %d: %d protection and %d location changes past the checkpoint",
				seed, len(rec.ProtMutations), len(rec.LocOps))
		}
		if rec.Report.DiscardedRecords != 0 || len(rec.Report.Notes) != 0 {
			t.Fatalf("seed %d: recovery report: %v", seed, rec.Report.Lines())
		}
		live := []*volume.Volume{tw.vols[0], other}
		if len(rec.Volumes) != len(live) {
			t.Fatalf("seed %d: recovered %d volumes, want %d", seed, len(rec.Volumes), len(live))
		}
		for i, v := range rec.Volumes {
			if !bytes.Equal(v.Serialize(), live[i].Serialize()) {
				t.Fatalf("seed %d: volume %d replayed from mixed records differs from the live one", seed, v.ID())
			}
		}
	}
}
