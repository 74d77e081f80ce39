package volume

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceTakeDirty is TakeDirty as it was before the journal scratch was
// reused — fresh slices, sort.Slice — reading the sets instead of draining
// them: the reference the reusing version is held to.
func referenceTakeDirty(dirty map[uint32]uint8, gone map[uint32]bool) (meta, data, dead []uint32) {
	for id, bits := range dirty {
		meta = append(meta, id)
		if bits&dirtyData != 0 {
			data = append(data, id)
		}
	}
	for id := range gone {
		dead = append(dead, id)
	}
	sort.Slice(meta, func(i, j int) bool { return meta[i] < meta[j] })
	sort.Slice(data, func(i, j int) bool { return data[i] < data[j] })
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	return meta, data, dead
}

// TestTakeDirtyMatchesReference drains seeded random dirty sets — small ones,
// empty ones, and ones larger and then smaller than the drain before, so the
// reused slices and cleared maps carry nothing over — and compares each drain
// with the reference's.
func TestTakeDirtyMatchesReference(t *testing.T) {
	v := newVol()
	v.EnableDirtyTracking()
	v.TakeDirty()
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 200; round++ {
		for n := rng.Intn(4) * rng.Intn(40); n > 0; n-- {
			id := uint32(rng.Intn(500))
			switch rng.Intn(4) {
			case 0:
				v.markData(id)
			case 1:
				v.markDead(id)
			default:
				v.markMeta(id)
			}
		}
		wantMeta, wantData, wantDead := referenceTakeDirty(v.journal.dirty, v.journal.dead)
		meta, data, dead := v.TakeDirty()
		if !slices.Equal(meta, wantMeta) || !slices.Equal(data, wantData) || !slices.Equal(dead, wantDead) {
			t.Fatalf("round %d: TakeDirty = %v %v %v, reference %v %v %v", round, meta, data, dead, wantMeta, wantData, wantDead)
		}
		if len(v.journal.dirty)+len(v.journal.dead) != 0 {
			t.Fatalf("round %d: TakeDirty left %d dirty, %d dead", round, len(v.journal.dirty), len(v.journal.dead))
		}
	}
}

// TestVnodeMetaRecordsOutliveArenaGrowth: the records of one drain are slices
// of one arena, and a later, larger record growing that arena must leave the
// earlier ones as they were; the next drain starts the arena over.
func TestVnodeMetaRecordsOutliveArenaGrowth(t *testing.T) {
	v := newVol()
	v.EnableDirtyTracking()
	small := mkDir(t, v, v.Root(), "small")
	big := mkDir(t, v, v.Root(), "big")
	v.TakeDirty()
	first, ok := v.EncodeVnodeMeta(small.Vnode)
	if !ok {
		t.Fatal("no record for a live vnode")
	}
	want := append([]byte(nil), first...)
	for i := 0; i < 300; i++ {
		mkFile(t, v, big, "a-rather-long-file-name-"+string(rune('a'+i%26))+string(rune('a'+i/26)), "")
	}
	second, _ := v.EncodeVnodeMeta(big.Vnode)
	if len(second) < 10*len(first) {
		t.Fatalf("the large directory's record is only %d bytes", len(second))
	}
	if !bytes.Equal(first, want) {
		t.Fatal("a later record overwrote an earlier one of the same drain")
	}
	if _, ok := v.EncodeVnodeMeta(9999); ok {
		t.Fatal("a record for a vnode that does not exist")
	}
	v.TakeDirty()
	again, _ := v.EncodeVnodeMeta(small.Vnode)
	if !bytes.Equal(again, want) {
		t.Fatal("the same vnode encodes differently after the arena was reused")
	}
}

// TestJournalIsNotShared: a clone and a deserialized copy are built field by
// field and must not inherit the parent's tracking, or two volumes would
// drain one set and encode into one arena.
func TestJournalIsNotShared(t *testing.T) {
	v := newVol()
	v.EnableDirtyTracking()
	mkFile(t, v, v.Root(), "f", "x")
	c := v.Clone(99, "clone")
	d, err := Deserialize(v.Serialize(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.TrackingDirty() || d.TrackingDirty() {
		t.Fatal("a copy of a journalled volume came with its journal")
	}
	if meta, data, dead := c.TakeDirty(); meta != nil || data != nil || dead != nil {
		t.Fatal("an untracked volume drained something")
	}
	if meta, _, _ := v.TakeDirty(); len(meta) == 0 {
		t.Fatal("copying the volume drained its dirty set")
	}
}
