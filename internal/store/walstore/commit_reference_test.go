package walstore

import (
	"sort"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// The commit path written plainly, kept as the reference the reusing one is
// compared with byte for byte (as frameRecord is for the record prefix):
// which vnodes changed is the volume's to say (TakeDirty), but every record
// is encoded into an encoder of its own and copied out, every slice is
// fresh, names are sorted through sort.Strings, and a directory's edit is
// found by comparing the directory with its copy at the last drain. It is
// written against the volume's exported surface, finding a vnode by walking
// the tree from the root.

// referenceJournal holds every directory of a volume as it stood at the
// last drain.
type referenceJournal struct {
	last map[uint32][]proto.DirEntry
}

// commitOf is store.CommitOf written plainly.
func (r *referenceJournal) commitOf(v *volume.Volume) store.Commit {
	meta, data, _, dead := v.TakeDirty()
	c := store.Commit{Vol: v.ID(), Hdr: v.Header(), Deletes: append([]uint32(nil), dead...)}
	for _, m := range meta {
		if rec, ok := referenceEncodeVnodeMeta(v, m.Vnode); ok {
			c.Meta = append(c.Meta, volume.VnodeMeta{Vnode: m.Vnode, Meta: rec})
		}
	}
	for _, d := range data {
		if vn := findVnode(v, v.Root(), d.Vnode); vn != nil {
			c.Data = append(c.Data, volume.VnodeData{Vnode: d.Vnode, Data: vn.Data})
		}
	}
	now := map[uint32][]proto.DirEntry{}
	collectDirs(v, v.Root(), now)
	var ids []uint32
	for id := range now {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		was := map[string]proto.DirEntry{}
		for _, de := range r.last[id] {
			was[de.Name] = de
		}
		is := map[string]bool{}
		ed := volume.DirEdit{Vnode: id}
		for _, de := range now[id] {
			is[de.Name] = true
			if old, ok := was[de.Name]; !ok || old != de {
				ed.Insert = append(ed.Insert, de)
			}
		}
		for _, de := range r.last[id] {
			if !is[de.Name] {
				ed.Remove = append(ed.Remove, de.Name)
			}
		}
		sort.Strings(ed.Remove)
		if len(ed.Insert)+len(ed.Remove) > 0 {
			c.Dirs = append(c.Dirs, ed)
		}
	}
	r.last = now
	return c
}

// collectDirs copies the entries of dir and of every directory under it
// into dirs.
func collectDirs(v *volume.Volume, dir proto.FID, dirs map[uint32][]proto.DirEntry) {
	dn, err := v.Get(dir)
	if err != nil {
		return
	}
	dirs[dir.Vnode] = append([]proto.DirEntry(nil), dn.Entries...)
	for _, de := range dn.Entries {
		if de.Type == proto.TypeDir && de.FID.Volume == v.ID() {
			collectDirs(v, de.FID, dirs)
		}
	}
}

// referenceEncodeVnodeMeta is the metadata record written plainly, with the
// access list encoded as prot.ACL.Encode did before it reused memory.
func referenceEncodeVnodeMeta(v *volume.Volume, id uint32) ([]byte, bool) {
	vn := findVnode(v, v.Root(), id)
	if vn == nil {
		return nil, false
	}
	var e wire.Encoder
	e.U32(vn.Parent)
	vn.Status.Encode(&e)
	for _, side := range []map[string]prot.Right{vn.ACL.Positive, vn.ACL.Negative} {
		names := make([]string, 0, len(side))
		for n := range side {
			names = append(names, n)
		}
		sort.Strings(names)
		e.U32(uint32(len(names)))
		for _, n := range names {
			e.String(n)
			e.U8(uint8(side[n]))
		}
	}
	return append([]byte(nil), e.Buf()...), true
}

// findVnode returns vnode id of v if it is reachable from dir, else nil.
func findVnode(v *volume.Volume, dir proto.FID, id uint32) *volume.Vnode {
	dn, err := v.Get(dir)
	if err != nil {
		return nil
	}
	if dir.Vnode == id {
		return dn
	}
	for _, de := range dn.Entries {
		if de.FID.Volume != v.ID() {
			continue
		}
		if de.Type == proto.TypeDir {
			if vn := findVnode(v, de.FID, id); vn != nil {
				return vn
			}
		} else if de.FID.Vnode == id {
			vn, _ := v.Get(de.FID)
			return vn
		}
	}
	return nil
}
