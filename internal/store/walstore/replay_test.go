package walstore

import (
	"bytes"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// firstFormCommit encodes c as the first form of the log recorded it: each
// metadata record goes on to its vnode's whole entry table, and there is no
// list of directory edits. v is the volume c was drained from, as it stands.
func firstFormCommit(v *volume.Volume, c store.Commit) []byte {
	var e wire.Encoder
	e.U32(c.Vol)
	c.Hdr.Encode(&e)
	e.ListLen(len(c.Deletes))
	for _, id := range c.Deletes {
		e.U32(id)
	}
	e.ListLen(len(c.Meta))
	for _, m := range c.Meta {
		var rec wire.Encoder
		rec.Raw(m.Meta)
		proto.EncodeDirEntries(&rec, findVnode(v, v.Root(), m.Vnode).Entries)
		e.U32(m.Vnode)
		e.Bytes(rec.Buf())
	}
	e.ListLen(len(c.Data))
	for _, d := range c.Data {
		e.U32(d.Vnode)
		e.Bytes(d.Data)
	}
	return e.Buf()
}

// TestReplayOfMixedRecordsEqualsTheLiveVolumes journals seeded random
// histories of two volumes through one log that holds every kind of record:
// volume beginnings and a drop, location and protection changes, a
// checkpoint part way, and commits in both forms — this one's, which carry
// each directory's edit, and the first form's, which carry whole entry
// tables, taking turns at random as a log an upgraded server kept writing
// would. Recovery must rebuild each volume byte for byte as it lives.
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
		firstForm := 0
		for i := 0; i < 300; i++ {
			tw.step()
			tw.vols[1].TakeDirty()
			c := store.CommitOf(tw.vols[0])
			if tw.rng.Intn(3) == 0 {
				firstForm++
				e := newRecord(0)
				e.Raw(firstFormCommit(tw.vols[0], c))
				must(s.append(kindCommit, e))
			} else {
				must(s.Commit(c))
			}
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
		if firstForm == 0 || len(rec.ProtMutations) != 1 || len(rec.LocOps) != 1 {
			t.Fatalf("seed %d: %d first-form commits; %d protection and %d location changes past the checkpoint",
				seed, firstForm, len(rec.ProtMutations), len(rec.LocOps))
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
