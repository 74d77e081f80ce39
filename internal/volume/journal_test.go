package volume

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/wire"
)

// referenceTakeDirty is TakeDirty's choice of vnodes as it was before the
// journal scratch was reused — fresh slices, sort.Slice — reading the sets
// instead of draining them: the reference the reusing version is held to.
// A vnode marked but no longer in the volume has no record.
func referenceTakeDirty(v *Volume) (meta, data, dead []uint32) {
	for id, bits := range v.journal.dirty {
		if v.vnodes[id] == nil {
			continue
		}
		meta = append(meta, id)
		if bits&dirtyData != 0 {
			data = append(data, id)
		}
	}
	for id := range v.journal.dead {
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
// with the reference's. What an earlier, longer drain left past the end of
// the lists is cleared: no file a commit carried stays pinned by the journal.
func TestTakeDirtyMatchesReference(t *testing.T) {
	v := newVol()
	v.EnableDirtyTracking()
	for i := range 60 {
		mkFile(t, v, v.Root(), fmt.Sprintf("f%d", i), "contents")
	}
	v.TakeDirty()
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 200; round++ {
		for n := rng.Intn(4) * rng.Intn(40); n > 0; n-- {
			id := uint32(rng.Intn(80))
			switch rng.Intn(4) {
			case 0:
				v.markData(id)
			case 1:
				v.markDead(id)
			default:
				v.markMeta(id)
			}
		}
		wantMeta, wantData, wantDead := referenceTakeDirty(v)
		meta, data, _, dead := v.TakeDirty()
		var metaIDs, dataIDs []uint32
		for _, m := range meta {
			metaIDs = append(metaIDs, m.Vnode)
		}
		for _, d := range data {
			dataIDs = append(dataIDs, d.Vnode)
			if !bytes.Equal(d.Data, v.vnodes[d.Vnode].Data) {
				t.Fatalf("round %d: vnode %d's contents are %q", round, d.Vnode, d.Data)
			}
		}
		if !slices.Equal(metaIDs, wantMeta) || !slices.Equal(dataIDs, wantData) || !slices.Equal(dead, wantDead) {
			t.Fatalf("round %d: TakeDirty = %v %v %v, reference %v %v %v", round, metaIDs, dataIDs, dead, wantMeta, wantData, wantDead)
		}
		if len(v.journal.dirty)+len(v.journal.dead) != 0 {
			t.Fatalf("round %d: TakeDirty left %d dirty, %d dead", round, len(v.journal.dirty), len(v.journal.dead))
		}
		for _, d := range data[len(data):cap(data)] {
			if d.Data != nil {
				t.Fatalf("round %d: the journal still holds vnode %d's contents past the drain's end", round, d.Vnode)
			}
		}
	}
}

// decodeMeta reads a metadata record as RestoreVnodeMeta does.
func decodeMeta(t *testing.T, rec []byte) (uint32, proto.Status) {
	t.Helper()
	d := wire.NewDecoder(rec)
	parent, st := d.U32(), proto.DecodeStatus(d)
	prot.DecodeACL(d)
	if err := d.Close(); err != nil {
		t.Fatalf("metadata record: %v", err)
	}
	return parent, st
}

// TestVnodeMetaRecordsOutliveArenaGrowth: the records of one drain are slices
// of one arena, and a later record growing that arena must leave the earlier
// ones as they were; the next drain starts the arena over. A directory's
// record carries no entries, so it stays the same size as the directory
// grows.
func TestVnodeMetaRecordsOutliveArenaGrowth(t *testing.T) {
	v := newVol()
	v.EnableDirtyTracking()
	big := mkDir(t, v, v.Root(), "big")
	v.TakeDirty()
	v.SetMode(big, 0o700)
	meta, _, _, _ := v.TakeDirty()
	small := len(meta[0].Meta)
	for i := 0; i < 300; i++ {
		mkFile(t, v, big, fmt.Sprintf("a-rather-long-file-name-%03d", i), "")
	}
	meta, _, _, _ = v.TakeDirty()
	if len(meta) != 301 {
		t.Fatalf("%d records for a directory and 300 files", len(meta))
	}
	for _, m := range meta {
		vn := v.vnodes[m.Vnode]
		if parent, st := decodeMeta(t, m.Meta); parent != vn.Parent || st != vn.Status {
			t.Fatalf("vnode %d's record was overwritten: parent %d, status %+v", m.Vnode, parent, st)
		}
		if m.Vnode == big.Vnode && len(m.Meta) != small {
			t.Fatalf("the directory's record grew from %d to %d bytes with its entries", small, len(m.Meta))
		}
	}
	v.SetMode(big, 0o755)
	meta, _, _, _ = v.TakeDirty()
	if len(meta) != 1 || meta[0].Vnode != big.Vnode {
		t.Fatalf("after the arena was reused: %d records", len(meta))
	}
	if _, st := decodeMeta(t, meta[0].Meta); st != v.vnodes[big.Vnode].Status {
		t.Fatal("the same vnode encodes differently after the arena was reused")
	}
}

// TestDirEditsAreTheNamesTouched: a drain's edits hold, per directory, the
// entry now under each name mutations entered and the names they removed,
// once each, whatever else the directory holds; a directory removed since
// has none.
func TestDirEditsAreTheNamesTouched(t *testing.T) {
	v := newVol()
	v.EnableDirtyTracking()
	a := mkDir(t, v, v.Root(), "a")
	gone := mkDir(t, v, v.Root(), "gone")
	for i := range 50 {
		mkFile(t, v, a, fmt.Sprintf("old%02d", i), "")
	}
	mkFile(t, v, gone, "x", "")
	v.TakeDirty()

	f := mkFile(t, v, a, "new", "")
	if err := v.Remove(a, "old03"); err != nil {
		t.Fatal(err)
	}
	if err := v.Rename(a, "old04", a, "old05"); err != nil { // replaces old05
		t.Fatal(err)
	}
	if err := v.Rename(a, "new", v.Root(), "moved"); err != nil {
		t.Fatal(err)
	}
	if err := v.Remove(gone, "x"); err != nil {
		t.Fatal(err)
	}
	if err := v.RemoveDir(v.Root(), "gone"); err != nil {
		t.Fatal(err)
	}
	_, _, dirs, _ := v.TakeDirty()
	old04, _ := proto.LookupDirEntry(v.vnodes[a.Vnode].Entries, "old05")
	want := []DirEdit{
		{Vnode: RootVnode, Insert: []proto.DirEntry{{Name: "moved", FID: f, Type: proto.TypeFile}}, Remove: []string{"gone"}},
		{Vnode: a.Vnode, Insert: []proto.DirEntry{old04}, Remove: []string{"new", "old03", "old04"}},
	}
	if fmt.Sprint(dirs) != fmt.Sprint(want) {
		t.Fatalf("edits:\n got %+v\nwant %+v", dirs, want)
	}
	if _, _, dirs, _ := v.TakeDirty(); len(dirs) != 0 {
		t.Fatalf("a second drain found edits: %+v", dirs)
	}
}

// TestRestoreDirEditIsIdempotent: replaying an edit twice, or onto a
// directory that already reflects it, leaves what replaying it once does.
func TestRestoreDirEditIsIdempotent(t *testing.T) {
	v := newVol()
	for _, n := range []string{"b", "c", "d"} {
		mkFile(t, v, v.Root(), n, "")
	}
	x := proto.DirEntry{Name: "a", FID: proto.FID{Volume: 1, Vnode: 40, Uniq: 9}, Type: proto.TypeFile}
	ed := DirEdit{Vnode: RootVnode, Insert: []proto.DirEntry{x}, Remove: []string{"c", "zz"}}
	for range 2 {
		if err := v.RestoreDirEdit(ed); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range v.vnodes[RootVnode].Entries {
			names = append(names, de.Name)
		}
		if !slices.Equal(names, []string{"a", "b", "d"}) {
			t.Fatalf("entries after replay: %v", names)
		}
	}
	if err := v.RestoreDirEdit(DirEdit{Vnode: 77}); err == nil {
		t.Fatal("an edit of a vnode that is not there replayed")
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
	if c.journal != nil || d.journal != nil {
		t.Fatal("a copy of a journalled volume came with its journal")
	}
	if meta, data, dirs, dead := c.TakeDirty(); meta != nil || data != nil || dirs != nil || dead != nil {
		t.Fatal("an untracked volume drained something")
	}
	if meta, _, dirs, _ := v.TakeDirty(); len(meta) == 0 || len(dirs) == 0 {
		t.Fatal("copying the volume drained its dirty set")
	}
}
