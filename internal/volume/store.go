package volume

// Durability hooks. A Volume is an in-memory structure; the store engines in
// internal/store make it durable by journalling every mutation and replaying
// the journal after a crash. This file is the narrow waist between the two:
//
//   - Header captures the volume's mutable scalar state (allocation
//     counters, byte accounting, availability), persisted with every commit.
//   - EncodeVnodeMeta / RestoreVnodeMeta round-trip one vnode's metadata —
//     status record, parent pointer, access list, directory entries — WITHOUT
//     its file content. Content travels separately (DataOf / RestoreData),
//     mirroring the metadata/blocks split of log-structured file stores.
//   - Dirty tracking records which vnodes each mutation touched, so a store
//     can journal exactly the changed records. Tracking is off by default
//     (the deterministic simulator keeps volumes volatile and pays nothing);
//     a server with a store enables it per volume.
//
// Restore* methods are for recovery and shadow replay only: they bypass
// quota, writability and clock logic, reproduce state byte-for-byte, and
// never mark anything dirty themselves.

import (
	"fmt"
	"slices"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/wire"
)

// Header is the volume's mutable scalar state outside any vnode. Identity
// (ID, name, read-only flag) is immutable after creation and travels in the
// full Serialize image instead.
type Header struct {
	Next   uint32 // next vnode number to allocate
	Uniq   uint32 // generation counter
	Used   int64  // data bytes consumed
	Quota  int64  // byte quota (0 = unlimited)
	Online bool
}

// Encode marshals the header.
func (h Header) Encode(e *wire.Encoder) {
	e.U32(h.Next)
	e.U32(h.Uniq)
	e.I64(h.Used)
	e.I64(h.Quota)
	e.Bool(h.Online)
}

// DecodeHeader unmarshals a header written by Encode.
func DecodeHeader(d *wire.Decoder) Header {
	return Header{
		Next:   d.U32(),
		Uniq:   d.U32(),
		Used:   d.I64(),
		Quota:  d.I64(),
		Online: d.Bool(),
	}
}

// Header snapshots the volume's mutable scalar state.
func (v *Volume) Header() Header {
	return Header{Next: v.next, Uniq: v.uniq, Used: v.used, Quota: v.quota, Online: v.online}
}

// RestoreHeader replaces the mutable scalar state during recovery.
func (v *Volume) RestoreHeader(h Header) {
	v.next = h.Next
	v.uniq = h.Uniq
	v.used = h.Used
	v.quota = h.Quota
	v.online = h.Online
}

// SetClock replaces the mtime source. Recovery installs the server's clock
// into volumes deserialized without one; nil is ignored.
func (v *Volume) SetClock(c Clock) {
	if c != nil {
		v.clock = c
	}
}

// Dirty bits per vnode.
const (
	dirtyMeta uint8 = 1 << iota // status, parent, ACL or entries changed
	dirtyData                   // file content changed
)

// journal is a journalled volume's dirty sets, and the memory its commit
// path uses again from one commit to the next: a small mutation journals
// what it changed without allocating. Everything TakeDirty and
// EncodeVnodeMeta return is a slice of it, valid until the next TakeDirty.
// The arena holds the metadata of the vnodes one operation dirtied — the
// volume already holds the same directories — so it is not bounded
// separately.
type journal struct {
	dirty map[uint32]uint8
	dead  map[uint32]bool

	meta, data, gone []uint32     // TakeDirty's three results
	arena            wire.Encoder // the metadata records since TakeDirty, back to back
}

// EnableDirtyTracking turns on mutation tracking for this volume. A server
// backed by a store enables it on every volume it installs; simulator
// volumes leave it off and pay nothing.
func (v *Volume) EnableDirtyTracking() {
	if v.journal == nil {
		v.journal = &journal{dirty: make(map[uint32]uint8), dead: make(map[uint32]bool)}
	}
}

// TrackingDirty reports whether mutation tracking is enabled.
func (v *Volume) TrackingDirty() bool { return v.journal != nil }

func (v *Volume) markMeta(id uint32) {
	if j := v.journal; j != nil {
		j.dirty[id] |= dirtyMeta
	}
}

func (v *Volume) markData(id uint32) {
	if j := v.journal; j != nil {
		j.dirty[id] |= dirtyMeta | dirtyData
	}
}

func (v *Volume) markDead(id uint32) {
	if j := v.journal; j != nil {
		delete(j.dirty, id)
		j.dead[id] = true
	}
}

// TakeDirty drains the dirty sets, returning the touched vnode numbers in
// ascending order: vnodes whose metadata changed, vnodes whose content
// changed, and vnodes deleted since the last drain. Vnode numbers are never
// reused, so a number cannot appear as both changed and deleted.
//
// The three slices, and every record EncodeVnodeMeta has returned, belong to
// the volume and are valid until the next TakeDirty, which reuses them.
func (v *Volume) TakeDirty() (meta, data, dead []uint32) {
	j := v.journal
	if j == nil {
		return nil, nil, nil
	}
	j.meta, j.data, j.gone = j.meta[:0], j.data[:0], j.gone[:0]
	j.arena.Reset()
	for id, bits := range j.dirty {
		j.meta = append(j.meta, id)
		if bits&dirtyData != 0 {
			j.data = append(j.data, id)
		}
	}
	for id := range j.dead {
		j.gone = append(j.gone, id)
	}
	slices.Sort(j.meta)
	slices.Sort(j.data)
	slices.Sort(j.gone)
	clear(j.dirty)
	clear(j.dead)
	return j.meta, j.data, j.gone
}

// EncodeVnodeMeta encodes one vnode's metadata — parent, status, ACL and
// directory entries, but not file content — for the journal. The second
// return is false when the vnode no longer exists. The volume must have
// dirty tracking enabled: the record is appended to the journal's arena and
// returned as a slice of it (see TakeDirty for how long it is valid).
func (v *Volume) EncodeVnodeMeta(id uint32) ([]byte, bool) {
	vn, ok := v.vnodes[id]
	if !ok {
		return nil, false
	}
	j := v.journal
	e := &j.arena
	start := e.Len()
	e.U32(vn.Parent)
	vn.Status.Encode(e)
	vn.ACL.Encode(e)
	proto.EncodeDirEntries(e, vn.Entries)
	// Capacity capped at the record: an append by its holder cannot run into
	// the next record. (The arena growing under a later record leaves this
	// one where it was, in the buffer it was written to.)
	return e.Buf()[start:e.Len():e.Len()], true
}

// RestoreVnodeMeta installs a vnode's metadata during recovery, creating the
// vnode if needed and preserving any file content already restored.
func (v *Volume) RestoreVnodeMeta(id uint32, rec []byte) error {
	d := wire.NewDecoder(rec)
	parent := d.U32()
	st := proto.DecodeStatus(d)
	acl := prot.DecodeACL(d)
	entries := proto.DecodeDirEntries(d)
	if err := d.Close(); err != nil {
		return fmt.Errorf("volume: corrupt vnode %d metadata: %w", id, err)
	}
	vn, ok := v.vnodes[id]
	if !ok {
		vn = &Vnode{}
		v.vnodes[id] = vn
	}
	vn.Parent = parent
	vn.Status = st
	vn.ACL = acl
	vn.Entries = entries
	return nil
}

// RestoreData installs a vnode's file content during recovery. The bytes are
// copied: callers may pass slices aliasing a journal buffer.
func (v *Volume) RestoreData(id uint32, data []byte) error {
	vn, ok := v.vnodes[id]
	if !ok {
		return fmt.Errorf("volume: data for missing vnode %d", id)
	}
	vn.Data = append([]byte(nil), data...)
	return nil
}

// DataOf returns a vnode's file content for the journal. The slice is shared
// (WriteData replaces slices rather than mutating them), so callers may hold
// it across the commit without copying.
func (v *Volume) DataOf(id uint32) ([]byte, bool) {
	vn, ok := v.vnodes[id]
	if !ok {
		return nil, false
	}
	return vn.Data, true
}

// DropVnode removes a vnode during recovery replay.
func (v *Volume) DropVnode(id uint32) {
	delete(v.vnodes, id)
}

// VnodeIDs lists the live vnode numbers in ascending order.
func (v *Volume) VnodeIDs() []uint32 {
	ids := make([]uint32, 0, len(v.vnodes))
	for id := range v.vnodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
