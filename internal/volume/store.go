package volume

// Durability hooks. A Volume is an in-memory structure; the store engines in
// internal/store make it durable by journalling every mutation and replaying
// the journal after a crash. This file is the narrow waist between the two:
//
//   - Header captures the volume's mutable scalar state (allocation
//     counters, byte accounting, availability), persisted with every commit.
//   - Dirty tracking records which vnodes and which directory names each
//     mutation touched, so a store can journal exactly the changes. Tracking
//     is off by default (the deterministic simulator keeps volumes volatile
//     and pays nothing); a server with a store enables it per volume.
//   - TakeDirty drains the tracking into three kinds of record: a vnode's
//     metadata — status record, parent pointer, access list — without its
//     file content or its directory entries; its content (VnodeData),
//     mirroring the metadata/blocks split of log-structured file stores; and
//     a directory's edit (DirEdit), the entries under the names it touched,
//     so a change to a directory costs what changed and not the directory.
//     RestoreVnodeMeta, RestoreData and RestoreDirEdit replay them.
//
// Restore* methods are for recovery and shadow replay only: they bypass
// quota, writability and clock logic, reproduce state byte-for-byte, and
// never mark anything dirty themselves.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

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

// VnodeMeta is one vnode's metadata record: its parent, status and access
// list, without its file content or directory entries.
type VnodeMeta struct {
	Vnode uint32
	Meta  []byte
}

// VnodeData is one vnode's file content.
type VnodeData struct {
	Vnode uint32
	Data  []byte
}

// DirEdit is what a directory's entries became under the names a mutation
// entered or removed: the entries now standing under some of them, and the
// other names, which now name nothing. Replaying it is idempotent (an insert
// replaces an entry of its name, and removing an absent name is no edit), and
// it is the same size whatever the directory holds.
type DirEdit struct {
	Vnode  uint32
	Insert []proto.DirEntry // in name order
	Remove []string         // in name order
}

// journal is a journalled volume's dirty sets, and the memory its commit
// path uses again from one commit to the next: a small mutation journals
// what it changed without allocating. Everything TakeDirty returns is a
// slice of it, valid until the next TakeDirty. The arena holds the metadata
// of the vnodes one operation dirtied, and the edit lists the names it
// touched — the volume already holds the same directories — so neither is
// bounded separately.
type journal struct {
	dirty map[uint32]uint8
	dead  map[uint32]bool
	named []dirName // every (directory, name) entered or removed, in order

	ids   []uint32 // the dirty vnodes, sorted
	meta  []VnodeMeta
	data  []VnodeData
	dirs  []DirEdit
	ins   []proto.DirEntry // the edits' inserts, back to back
	rem   []string         // the edits' removals, back to back
	gone  []uint32
	arena wire.Encoder // the metadata records since TakeDirty, back to back
}

// dirName is a name a mutation entered in or removed from a directory.
type dirName struct {
	dir  uint32
	name string
}

// EnableDirtyTracking turns on mutation tracking for this volume. A server
// backed by a store enables it on every volume it installs; simulator
// volumes leave it off and pay nothing.
func (v *Volume) EnableDirtyTracking() {
	if v.journal == nil {
		v.journal = &journal{dirty: make(map[uint32]uint8), dead: make(map[uint32]bool)}
	}
}

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

// markName notes that name was entered in or removed from the directory dn.
func (v *Volume) markName(dn *Vnode, name string) {
	if j := v.journal; j != nil {
		j.named = append(j.named, dirName{dn.Status.FID.Vnode, name})
	}
}

// TakeDirty drains the dirty sets into what a commit carries, each list in
// ascending vnode order: the metadata record of every live vnode whose
// metadata changed, the content of every one whose content changed, an edit
// per directory whose entries changed, and the vnodes deleted. Vnode numbers
// are never reused, so a number cannot appear as both changed and deleted.
//
// Everything returned belongs to the volume and is valid until the next
// TakeDirty, which reuses it. That drain first clears what the last one
// returned, so no file a commit carried stays reachable from the journal.
func (v *Volume) TakeDirty() (meta []VnodeMeta, data []VnodeData, dirs []DirEdit, dead []uint32) {
	j := v.journal
	if j == nil {
		return nil, nil, nil, nil
	}
	j.ids, j.gone = j.ids[:0], j.gone[:0]
	for id := range j.dirty {
		j.ids = append(j.ids, id)
	}
	for id := range j.dead {
		j.gone = append(j.gone, id)
	}
	slices.Sort(j.ids)
	slices.Sort(j.gone)
	clear(j.meta)
	clear(j.data)
	j.meta, j.data = j.meta[:0], j.data[:0]
	j.arena.Reset()
	for _, id := range j.ids {
		vn, ok := v.vnodes[id]
		if !ok {
			continue
		}
		j.meta = append(j.meta, VnodeMeta{Vnode: id, Meta: v.encodeVnodeMeta(vn)})
		if j.dirty[id]&dirtyData != 0 {
			j.data = append(j.data, VnodeData{Vnode: id, Data: vn.Data})
		}
	}
	v.drainNames(j)
	clear(j.dirty)
	clear(j.dead)
	return j.meta, j.data, j.dirs, j.gone
}

// drainNames turns the names mutations touched into one edit per live
// directory: each name is looked up where the directory now stands, an
// insert if it is there and a removal if not. A directory deleted since has
// no edit; its vnode is among the dead.
func (v *Volume) drainNames(j *journal) {
	slices.SortFunc(j.named, func(a, b dirName) int {
		return cmp.Or(cmp.Compare(a.dir, b.dir), strings.Compare(a.name, b.name))
	})
	named := slices.Compact(j.named)
	clear(j.dirs)
	clear(j.ins)
	clear(j.rem)
	j.dirs, j.ins, j.rem = j.dirs[:0], j.ins[:0], j.rem[:0]
	for len(named) > 0 {
		dir := named[0].dir
		n := 1
		for n < len(named) && named[n].dir == dir {
			n++
		}
		if dn, ok := v.vnodes[dir]; ok && dn.Status.Type == proto.TypeDir {
			ins, rem := len(j.ins), len(j.rem)
			for _, dnm := range named[:n] {
				if de, ok := proto.LookupDirEntry(dn.Entries, dnm.name); ok {
					j.ins = append(j.ins, de)
				} else {
					j.rem = append(j.rem, dnm.name)
				}
			}
			// Capacity capped at the edit's own: an append by its holder
			// cannot run into the next directory's.
			j.dirs = append(j.dirs, DirEdit{Vnode: dir,
				Insert: j.ins[ins:len(j.ins):len(j.ins)], Remove: j.rem[rem:len(j.rem):len(j.rem)]})
		}
		named = named[n:]
	}
	clear(j.named)
	j.named = j.named[:0]
}

// encodeVnodeMeta encodes vn's metadata — parent, status and ACL, but not
// file content or directory entries — for the journal. The record is
// appended to the journal's arena and returned as a slice of it (see
// TakeDirty for how long it is valid).
func (v *Volume) encodeVnodeMeta(vn *Vnode) []byte {
	e := &v.journal.arena
	start := e.Len()
	e.U32(vn.Parent)
	vn.Status.Encode(e)
	vn.ACL.Encode(e)
	// Capacity capped at the record: an append by its holder cannot run into
	// the next record. (The arena growing under a later record leaves this
	// one where it was, in the buffer it was written to.)
	return e.Buf()[start:e.Len():e.Len()]
}

// RestoreVnodeMeta installs a vnode's metadata during recovery, creating the
// vnode if needed and keeping any file content and directory entries already
// restored: a directory's entries change by RestoreDirEdit.
func (v *Volume) RestoreVnodeMeta(id uint32, rec []byte) error {
	d := wire.NewDecoder(rec)
	parent := d.U32()
	st := proto.DecodeStatus(d)
	acl := prot.DecodeACL(d)
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
	return nil
}

// RestoreDirEdit replays a directory edit during recovery: its removals,
// then its inserts.
func (v *Volume) RestoreDirEdit(ed DirEdit) error {
	dn, ok := v.vnodes[ed.Vnode]
	if !ok || dn.Status.Type != proto.TypeDir {
		return fmt.Errorf("volume: entries for vnode %d, which is no directory", ed.Vnode)
	}
	for _, name := range ed.Remove {
		dn.Entries = proto.RemoveDirEntry(dn.Entries, name)
	}
	for _, de := range ed.Insert {
		dn.Entries = proto.InsertDirEntry(dn.Entries, de)
	}
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

// DataOf returns a vnode's file content. The slice is shared
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
