package volume

import (
	"fmt"
	"slices"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/wire"
)

// Clone produces a frozen read-only replica of the volume under a new
// volume ID. Cloning is an atomic, inexpensive operation: vnode records are
// copied but file data slices are shared with the parent. Because WriteData
// on the read-write parent replaces slices rather than mutating them, the
// shared data is copy-on-write for free. This is the paper's mechanism for
// the orderly release of new system software: multiple coexisting versions
// of a subsystem are simply multiple read-only clones (§3.2, §5.3).
func (v *Volume) Clone(newID uint32, newName string) *Volume {
	c := &Volume{
		id:       newID,
		name:     newName,
		readOnly: true,
		online:   true,
		quota:    v.quota,
		used:     v.used,
		next:     v.next,
		uniq:     v.uniq,
		vnodes:   make(map[uint32]*Vnode, len(v.vnodes)),
		clock:    v.clock,
	}
	for id, vn := range v.vnodes {
		cp := &Vnode{
			Status: vn.Status,
			Data:   vn.Data, // shared: copy-on-write
			ACL:    vn.ACL.Clone(),
			Parent: vn.Parent,
		}
		cp.Status.FID.Volume = newID
		if len(vn.Entries) > 0 {
			cp.Entries = slices.Clone(vn.Entries)
			for i := range cp.Entries {
				if cp.Entries[i].FID.Volume == v.id { // a mount point keeps its target
					cp.Entries[i].FID.Volume = newID
				}
			}
		}
		c.vnodes[id] = cp
	}
	return c
}

// Serialize encodes the entire volume for transfer to another server
// (volume moves and read-only replication). The image is allocated once, at
// exactly its size, so the file contents — nearly all of a large image — are
// copied exactly once.
func (v *Volume) Serialize() []byte {
	var e wire.Encoder
	e.Grow(v.ImageSize())
	v.EncodeImage(&e)
	return e.Buf()
}

// ImageSize returns the length of the volume's Serialize image. It encodes
// the metadata alone into a pooled scratch buffer and counts the file
// contents without copying them.
func (v *Volume) ImageSize() int {
	scratch := wire.GetEncoder()
	defer wire.PutEncoder(scratch)
	return v.encodeImage(scratch, false)
}

// EncodeImage appends the volume's Serialize image to e and returns its
// length, ImageSize's unless the volume changed in between: a checkpoint
// encodes each volume straight into the file it writes.
func (v *Volume) EncodeImage(e *wire.Encoder) int { return v.encodeImage(e, true) }

// encodeImage appends the volume image to e and returns the image's full
// length. Without withData each file's contents are left out after their
// length prefix (and still counted): the sizing pass of ImageSize.
func (v *Volume) encodeImage(e *wire.Encoder, withData bool) int {
	start := e.Len()
	ids := v.VnodeIDs()
	skipped := 0
	e.U32(v.id)
	e.String(v.name)
	e.Bool(v.readOnly)
	e.I64(v.quota)
	e.U32(v.next)
	e.U32(v.uniq)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		vn := v.vnodes[id]
		e.U32(id)
		e.U32(vn.Parent)
		vn.Status.Encode(e)
		if withData {
			e.Bytes(vn.Data)
		} else {
			e.U32(uint32(len(vn.Data)))
			skipped += len(vn.Data)
		}
		vn.ACL.Encode(e)
		proto.EncodeDirEntries(e, vn.Entries)
	}
	return e.Len() - start + skipped
}

// Deserialize reconstructs a volume from Serialize output.
func Deserialize(image []byte, clock Clock) (*Volume, error) {
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	d := wire.NewDecoder(image)
	v := &Volume{
		id:       d.U32(),
		name:     d.String(),
		readOnly: d.Bool(),
		quota:    d.I64(),
		next:     d.U32(),
		uniq:     d.U32(),
		online:   true,
		vnodes:   make(map[uint32]*Vnode),
		clock:    clock,
	}
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		id := d.U32()
		vn := &Vnode{Parent: d.U32(), Status: proto.DecodeStatus(d)}
		vn.Data = append([]byte(nil), d.Bytes()...)
		vn.ACL = prot.DecodeACL(d)
		vn.Entries = proto.DecodeDirEntries(d)
		if vn.Status.Type == proto.TypeFile {
			v.used += int64(len(vn.Data))
		}
		v.vnodes[id] = vn
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("volume: corrupt image: %w", err)
	}
	if _, ok := v.vnodes[RootVnode]; !ok {
		return nil, fmt.Errorf("volume: image has no root vnode")
	}
	return v, nil
}

// SalvageReport describes what Salvage repaired.
type SalvageReport struct {
	OrphansRemoved  int // vnodes unreachable from the root
	DanglingEntries int // directory entries pointing at missing vnodes
	LinksFixed      int // link counts corrected
	BytesCorrected  bool
}

// Salvage checks and repairs volume invariants after a crash (§5.3): every
// vnode reachable from the root, no directory entry dangling, link counts
// and the used-byte total consistent with the tree.
func (v *Volume) Salvage() SalvageReport {
	var rep SalvageReport

	// Pass 1: drop directory entries pointing at missing or stale vnodes.
	reachable := map[uint32]bool{}
	links := map[uint32]int{}
	var walk func(id uint32)
	walk = func(id uint32) {
		if reachable[id] {
			return
		}
		reachable[id] = true
		vn := v.vnodes[id]
		if vn == nil || vn.Status.Type != proto.TypeDir {
			return
		}
		kept := vn.Entries[:0] // compacted in place
		for _, de := range vn.Entries {
			if de.FID.Volume == v.id { // not a mount point into another volume
				child, ok := v.vnodes[de.FID.Vnode]
				if !ok || child.Status.FID != de.FID {
					rep.DanglingEntries++
					v.markName(vn, de.Name)
					continue
				}
				links[de.FID.Vnode]++
				if de.Type == proto.TypeDir {
					walk(de.FID.Vnode)
				} else {
					reachable[de.FID.Vnode] = true
				}
			}
			kept = append(kept, de)
		}
		if len(kept) < len(vn.Entries) {
			vn.Entries = kept
			vn.Status.Size = proto.DirSize(kept)
			v.markMeta(id)
		}
	}
	walk(RootVnode)

	// Pass 2: remove orphans, fix link counts, recount bytes.
	var used int64
	for id, vn := range v.vnodes {
		if !reachable[id] {
			delete(v.vnodes, id)
			v.markDead(id)
			rep.OrphansRemoved++
			continue
		}
		want := links[id]
		if vn.Status.Type == proto.TypeDir {
			// A directory has 2 links plus one per same-volume subdirectory
			// (mount points live in other volumes and hold no link here).
			want = 2
			for _, de := range vn.Entries {
				if de.Type == proto.TypeDir && de.FID.Volume == v.id {
					want++
				}
			}
		}
		if vn.Status.Links != want {
			vn.Status.Links = want
			v.markMeta(id)
			rep.LinksFixed++
		}
		if vn.Status.Type == proto.TypeFile {
			used += vn.Status.Size
		}
	}
	if used != v.used {
		v.used = used
		rep.BytesCorrected = true
	}
	return rep
}

// VnodeCount returns the number of live vnodes (for tests and stats).
func (v *Volume) VnodeCount() int { return len(v.vnodes) }

// CorruptForTest deliberately breaks volume invariants — an orphan vnode, a
// dangling directory entry, a wrong link count and a wrong byte total — so
// tests (here and in packages layering above) can exercise Salvage. It
// simulates the disk damage a server crash leaves behind.
func (v *Volume) CorruptForTest() {
	// An orphan vnode.
	v.uniq++
	v.vnodes[9999] = &Vnode{Status: proto.Status{
		FID: proto.FID{Volume: v.id, Vnode: 9999, Uniq: v.uniq}, Type: proto.TypeFile, Size: 10,
	}}
	// A dangling entry and a wrong link count in the root.
	root := v.vnodes[RootVnode]
	root.Entries = proto.InsertDirEntry(root.Entries, proto.DirEntry{Name: "ghost", FID: proto.FID{Volume: v.id, Vnode: 8888, Uniq: 1}})
	root.Status.Links = 99
	// A wrong byte total.
	v.used += 12345
}
