package walstore

import (
	"sort"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// The commit path as it was before it reused memory, kept as the reference
// the reusing one is compared with byte for byte (as frameRecord is for the
// record prefix): every vnode encoded into an encoder of its own and copied
// out, every slice fresh, names sorted through sort.Strings. It is written
// against the volume's exported surface, finding a vnode by walking the tree
// from the root.

// referenceCommitOf is store.CommitOf's former body.
func referenceCommitOf(v *volume.Volume) store.Commit {
	meta, data, dead := v.TakeDirty()
	c := store.Commit{Vol: v.ID(), Hdr: v.Header(), Deletes: append([]uint32(nil), dead...)}
	for _, id := range meta {
		if rec, ok := referenceEncodeVnodeMeta(v, id); ok {
			c.Meta = append(c.Meta, store.VnodeMeta{Vnode: id, Meta: rec})
		}
	}
	for _, id := range data {
		if b, ok := v.DataOf(id); ok {
			c.Data = append(c.Data, store.VnodeData{Vnode: id, Data: b})
		}
	}
	return c
}

// referenceEncodeVnodeMeta is volume.EncodeVnodeMeta's former body, with the
// access list encoded as prot.ACL.Encode did then.
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
	entries := append([]proto.DirEntry(nil), vn.Entries...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	e.U32(uint32(len(entries)))
	for _, de := range entries {
		e.String(de.Name)
		de.FID.Encode(&e)
		e.U8(uint8(de.Type))
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
