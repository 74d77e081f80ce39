// Package volume implements the Volume abstraction the paper introduces for
// its revised implementation (§5.3): a complete subtree of files whose root
// may be arbitrarily relocated in the Vice name space, similar to a
// mountable disk pack. Volumes can be taken offline and online, moved
// between servers (via Serialize/Deserialize), salvaged after a crash, and
// Cloned — producing a frozen read-only replica with copy-on-write
// semantics, the mechanism behind the orderly release of system software.
//
// Every Vice file inside a volume is a vnode holding its data and its
// status record — the in-memory equivalent of the prototype's two Unix
// files per Vice file (data + .admin, §3.5.2). Directories are vnodes whose
// logical content is an entry table; fetching one materializes the encoded
// listing that workstations traverse client-side.
//
// A Volume is not safe for concurrent use: the Vice server serializes
// access, exactly as its single-process design prescribes.
package volume

import (
	"fmt"
	"strings"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
)

// RootVnode is the vnode number of every volume's root directory.
const RootVnode uint32 = 1

// Clock supplies mtimes; simulated runs inject virtual time.
type Clock func() int64

// Vnode is one file, directory or symlink within a volume.
type Vnode struct {
	Status  proto.Status
	Data    []byte           // file contents; shared with clones (copy-on-write)
	Entries []proto.DirEntry // directories only, in proto's name order
	ACL     prot.ACL         // directories only
	// Parent is the vnode number of the containing directory; protection on
	// plain files is the directory's access list (§3.4). For files with
	// several hard links it is the directory of the first link, as in AFS.
	Parent uint32
}

// Volume is one mountable subtree.
type Volume struct {
	id       uint32
	name     string
	readOnly bool
	online   bool
	quota    int64 // bytes; 0 = unlimited
	used     int64
	next     uint32 // next vnode number
	uniq     uint32 // generation counter
	vnodes   map[uint32]*Vnode
	clock    Clock

	// Dirty tracking for durable stores (see store.go): nil unless
	// EnableDirtyTracking has been called, which makes every mark a no-op,
	// so simulator volumes pay one word for it. Never shared: Clone and
	// Deserialize build their Volume field by field and leave it nil.
	journal *journal
}

// New creates an empty read-write volume whose root directory carries acl.
func New(id uint32, name string, acl prot.ACL, quota int64, owner string, clock Clock) *Volume {
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	v := &Volume{
		id:     id,
		name:   name,
		online: true,
		quota:  quota,
		next:   RootVnode + 1,
		uniq:   1,
		vnodes: make(map[uint32]*Vnode),
		clock:  clock,
	}
	v.vnodes[RootVnode] = &Vnode{
		Status: proto.Status{
			FID:   proto.FID{Volume: id, Vnode: RootVnode, Uniq: 1},
			Type:  proto.TypeDir,
			Mode:  0o755,
			Owner: owner,
			Links: 2,
			Mtime: clock(),
			Size:  proto.DirSize(nil),
		},
		ACL: acl.Clone(),
	}
	return v
}

// ID returns the volume identifier.
func (v *Volume) ID() uint32 { return v.id }

// Name returns the administrative name.
func (v *Volume) Name() string { return v.name }

// ReadOnly reports whether the volume is a frozen clone.
func (v *Volume) ReadOnly() bool { return v.readOnly }

// Online reports whether the volume is serving requests.
func (v *Volume) Online() bool { return v.online }

// SetOnline flips the volume's availability.
func (v *Volume) SetOnline(on bool) { v.online = on }

// Quota returns the byte quota (0 = unlimited).
func (v *Volume) Quota() int64 { return v.quota }

// SetQuota changes the byte quota. Shrinking below current use is allowed;
// further growth is what gets refused.
func (v *Volume) SetQuota(q int64) { v.quota = q }

// Used returns the data bytes consumed.
func (v *Volume) Used() int64 { return v.used }

// Root returns the root FID.
func (v *Volume) Root() proto.FID {
	return v.vnodes[RootVnode].Status.FID
}

// checkWritable gates every mutation.
func (v *Volume) checkWritable() error {
	if !v.online {
		return proto.ErrOffline
	}
	if v.readOnly {
		return proto.ErrReadOnly
	}
	return nil
}

// checkQuota admits a change of delta bytes.
func (v *Volume) checkQuota(delta int64) error {
	if v.quota > 0 && delta > 0 && v.used+delta > v.quota {
		return fmt.Errorf("%w: %d + %d > %d", proto.ErrQuota, v.used, delta, v.quota)
	}
	return nil
}

// Get resolves a FID to its vnode, enforcing generation match (a reused
// vnode number with a different Uniq is ErrStale).
func (v *Volume) Get(fid proto.FID) (*Vnode, error) {
	if !v.online {
		return nil, proto.ErrOffline
	}
	if fid.Volume != v.id {
		return nil, fmt.Errorf("%w: %v not in volume %d", proto.ErrStale, fid, v.id)
	}
	vn, ok := v.vnodes[fid.Vnode]
	if !ok || vn.Status.FID.Uniq != fid.Uniq {
		return nil, fmt.Errorf("%w: %v", proto.ErrStale, fid)
	}
	return vn, nil
}

// Lookup finds name within the directory dir.
func (v *Volume) Lookup(dir proto.FID, name string) (proto.DirEntry, error) {
	dn, err := v.Get(dir)
	if err != nil {
		return proto.DirEntry{}, err
	}
	if dn.Status.Type != proto.TypeDir {
		return proto.DirEntry{}, proto.ErrNotDir
	}
	de, ok := proto.LookupDirEntry(dn.Entries, name)
	if !ok {
		return proto.DirEntry{}, fmt.Errorf("%w: %s", proto.ErrNoEnt, name)
	}
	return de, nil
}

// newVnode allocates a vnode of the given type.
func (v *Volume) newVnode(typ proto.FileType, mode uint16, owner string) *Vnode {
	v.uniq++
	id := v.next
	v.next++
	vn := &Vnode{
		Status: proto.Status{
			FID:   proto.FID{Volume: v.id, Vnode: id, Uniq: v.uniq},
			Type:  typ,
			Mode:  mode,
			Owner: owner,
			Links: 1,
			Mtime: v.clock(),
		},
	}
	if typ == proto.TypeDir {
		vn.Status.Links = 2
		vn.Status.Size = proto.DirSize(nil)
	}
	v.vnodes[id] = vn
	v.markMeta(id)
	return vn
}

// enter puts de in the directory dn, replacing an entry of the same name,
// and journals the name.
func (v *Volume) enter(dn *Vnode, de proto.DirEntry) {
	dn.Entries = proto.InsertDirEntry(dn.Entries, de)
	v.markName(dn, de.Name)
}

// unlink removes name from the directory dn, if it is there, and journals
// the name.
func (v *Volume) unlink(dn *Vnode, name string) {
	dn.Entries = proto.RemoveDirEntry(dn.Entries, name)
	v.markName(dn, name)
}

func (v *Volume) touchDir(dn *Vnode) {
	dn.Status.Mtime = v.clock()
	dn.Status.Version++
	dn.Status.Size = proto.DirSize(dn.Entries)
	v.markMeta(dn.Status.FID.Vnode)
}

// Create makes a new empty file name in dir.
func (v *Volume) Create(dir proto.FID, name string, mode uint16, owner string) (*Vnode, error) {
	dn, err := v.dirForNewName(dir, name)
	if err != nil {
		return nil, err
	}
	vn := v.newVnode(proto.TypeFile, mode, owner)
	vn.Parent = dir.Vnode
	v.enter(dn, proto.DirEntry{Name: name, FID: vn.Status.FID, Type: proto.TypeFile})
	v.touchDir(dn)
	return vn, nil
}

// MakeDir makes a new directory name in dir. The new directory inherits its
// parent's access list (per-directory protection, §3.4).
func (v *Volume) MakeDir(dir proto.FID, name string, mode uint16, owner string) (*Vnode, error) {
	dn, err := v.dirForNewName(dir, name)
	if err != nil {
		return nil, err
	}
	vn := v.newVnode(proto.TypeDir, mode, owner)
	vn.Parent = dir.Vnode
	vn.ACL = dn.ACL.Clone()
	v.enter(dn, proto.DirEntry{Name: name, FID: vn.Status.FID, Type: proto.TypeDir})
	dn.Status.Links++
	v.touchDir(dn)
	return vn, nil
}

// Symlink makes a symbolic link name in dir pointing at target.
func (v *Volume) Symlink(dir proto.FID, name, target string) (*Vnode, error) {
	dn, err := v.dirForNewName(dir, name)
	if err != nil {
		return nil, err
	}
	vn := v.newVnode(proto.TypeSymlink, 0o777, "")
	vn.Parent = dir.Vnode
	vn.Status.Target = target
	vn.Status.Size = int64(len(target))
	v.enter(dn, proto.DirEntry{Name: name, FID: vn.Status.FID, Type: proto.TypeSymlink})
	v.touchDir(dn)
	return vn, nil
}

// Link adds a hard link name in dir to the existing file target.
func (v *Volume) Link(dir proto.FID, name string, target proto.FID) error {
	dn, err := v.dirForNewName(dir, name)
	if err != nil {
		return err
	}
	tn, err := v.Get(target)
	if err != nil {
		return err
	}
	if tn.Status.Type == proto.TypeDir {
		return proto.ErrIsDir
	}
	v.enter(dn, proto.DirEntry{Name: name, FID: tn.Status.FID, Type: tn.Status.Type})
	tn.Status.Links++
	v.markMeta(tn.Status.FID.Vnode)
	v.touchDir(dn)
	return nil
}

// validName says what a directory entry's name is: one path component.
// Empty, "." and "..", and anything with a slash in it would make an entry
// no pathname reaches — unixfs.Clean removes them before any walk.
func validName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("%w: empty name", proto.ErrBadRequest)
	case name == "." || name == ".." || strings.Contains(name, "/"):
		return fmt.Errorf("%w: %q is not a name", proto.ErrBadRequest, name)
	}
	return nil
}

// dirForNewName is the one place a name enters a directory: dir is a
// directory of a writable volume, name is a name, and it is free there.
// Rename, whose target may exist, checks the first two for itself; recovery
// (RestoreVnodeMeta) replays what was once accepted and is not a client.
func (v *Volume) dirForNewName(dir proto.FID, name string) (*Vnode, error) {
	dn, err := v.mutableDir(dir)
	if err != nil {
		return nil, err
	}
	if err := validName(name); err != nil {
		return nil, err
	}
	if _, exists := proto.LookupDirEntry(dn.Entries, name); exists {
		return nil, fmt.Errorf("%w: %s", proto.ErrExist, name)
	}
	return dn, nil
}

func (v *Volume) mutableDir(dir proto.FID) (*Vnode, error) {
	if err := v.checkWritable(); err != nil {
		return nil, err
	}
	dn, err := v.Get(dir)
	if err != nil {
		return nil, err
	}
	if dn.Status.Type != proto.TypeDir {
		return nil, proto.ErrNotDir
	}
	return dn, nil
}

// WriteData replaces a file's contents — the server half of a whole-file
// store. The data version advances, which is what invalidates caches.
//
// The caller gives data up: the slice itself becomes the vnode's contents,
// so nothing may write to it afterwards. A store whose request its carrier
// handed over (rpc.Request.Owned) gives up the buffer the transfer was
// received into; one whose request was only lent calls WriteCopy.
func (v *Volume) WriteData(fid proto.FID, data []byte) (*Vnode, error) {
	if err := v.checkWritable(); err != nil {
		return nil, err
	}
	vn, err := v.Get(fid)
	if err != nil {
		return nil, err
	}
	if vn.Status.Type != proto.TypeFile {
		return nil, proto.ErrIsDir
	}
	if err := v.checkQuota(int64(len(data)) - vn.Status.Size); err != nil {
		return nil, err
	}
	// Replace, never mutate: clones share the old slice (copy-on-write).
	vn.Data = data
	v.used += int64(len(data)) - vn.Status.Size
	vn.Status.Size = int64(len(data))
	vn.Status.Version++
	vn.Status.Mtime = v.clock()
	v.markData(fid.Vnode)
	return vn, nil
}

// WriteCopy is WriteData for a caller that keeps its buffer: the vnode gets
// a copy of data.
func (v *Volume) WriteCopy(fid proto.FID, data []byte) (*Vnode, error) {
	return v.WriteData(fid, append([]byte(nil), data...))
}

// ReadData returns a file's contents. Directories yield their encoded
// listing. The returned slice must not be modified.
func (v *Volume) ReadData(fid proto.FID) ([]byte, *Vnode, error) {
	vn, err := v.Get(fid)
	if err != nil {
		return nil, nil, err
	}
	if vn.Status.Type == proto.TypeDir {
		return proto.DirListing(vn.Entries), vn, nil
	}
	return vn.Data, vn, nil
}

// Remove unlinks the file or symlink name from dir.
func (v *Volume) Remove(dir proto.FID, name string) error {
	dn, err := v.mutableDir(dir)
	if err != nil {
		return err
	}
	de, ok := proto.LookupDirEntry(dn.Entries, name)
	if !ok {
		return fmt.Errorf("%w: %s", proto.ErrNoEnt, name)
	}
	if de.Type == proto.TypeDir {
		return proto.ErrIsDir
	}
	vn, err := v.Get(de.FID)
	if err == nil {
		vn.Status.Links--
		if vn.Status.Links <= 0 {
			if vn.Status.Type == proto.TypeFile {
				v.used -= vn.Status.Size
			}
			delete(v.vnodes, de.FID.Vnode)
			v.markDead(de.FID.Vnode)
		} else {
			v.markMeta(de.FID.Vnode)
		}
	}
	v.unlink(dn, name)
	v.touchDir(dn)
	return nil
}

// RemoveDir removes the empty directory name from dir.
func (v *Volume) RemoveDir(dir proto.FID, name string) error {
	dn, err := v.mutableDir(dir)
	if err != nil {
		return err
	}
	de, ok := proto.LookupDirEntry(dn.Entries, name)
	if !ok {
		return fmt.Errorf("%w: %s", proto.ErrNoEnt, name)
	}
	if de.Type != proto.TypeDir {
		return proto.ErrNotDir
	}
	child, err := v.Get(de.FID)
	if err != nil {
		return err
	}
	if len(child.Entries) != 0 {
		return fmt.Errorf("%w: %s", proto.ErrNotEmpty, name)
	}
	delete(v.vnodes, de.FID.Vnode)
	v.markDead(de.FID.Vnode)
	v.unlink(dn, name)
	dn.Status.Links--
	v.touchDir(dn)
	return nil
}

// Rename moves fromName in fromDir to toName in toDir (both within this
// volume). FIDs are invariant across renames (§5.3). A non-directory target
// is replaced; moving a directory under its own subtree is refused.
func (v *Volume) Rename(fromDir proto.FID, fromName string, toDir proto.FID, toName string) error {
	fdn, err := v.mutableDir(fromDir)
	if err != nil {
		return err
	}
	tdn, err := v.mutableDir(toDir)
	if err != nil {
		return err
	}
	de, ok := proto.LookupDirEntry(fdn.Entries, fromName)
	if !ok {
		return fmt.Errorf("%w: %s", proto.ErrNoEnt, fromName)
	}
	if err := validName(toName); err != nil {
		return err
	}
	if de.Type == proto.TypeDir && v.isAncestor(de.FID, toDir) {
		return fmt.Errorf("%w: cannot move a directory under itself", proto.ErrBadRequest)
	}
	if old, exists := proto.LookupDirEntry(tdn.Entries, toName); exists {
		if old.FID == de.FID {
			return nil
		}
		switch {
		case old.Type == proto.TypeDir && de.Type == proto.TypeDir:
			target, err := v.Get(old.FID)
			if err != nil {
				return err
			}
			if len(target.Entries) != 0 {
				return fmt.Errorf("%w: %s", proto.ErrNotEmpty, toName)
			}
			delete(v.vnodes, old.FID.Vnode)
			v.markDead(old.FID.Vnode)
			tdn.Status.Links--
		case old.Type == proto.TypeDir || de.Type == proto.TypeDir:
			return proto.ErrIsDir
		default:
			if err := v.Remove(toDir, toName); err != nil {
				return err
			}
		}
	}
	v.unlink(fdn, fromName)
	de.Name = toName
	v.enter(tdn, de)
	if moved, err := v.Get(de.FID); err == nil && moved.Parent == fromDir.Vnode {
		moved.Parent = toDir.Vnode
		v.markMeta(de.FID.Vnode)
	}
	if de.Type == proto.TypeDir && fdn != tdn {
		fdn.Status.Links--
		tdn.Status.Links++
	}
	v.touchDir(fdn)
	if fdn != tdn {
		v.touchDir(tdn)
	}
	return nil
}

// isAncestor reports whether dir lies within the subtree rooted at root.
func (v *Volume) isAncestor(root, dir proto.FID) bool {
	if root == dir {
		return true
	}
	rn, err := v.Get(root)
	if err != nil || rn.Status.Type != proto.TypeDir {
		return false
	}
	for _, de := range rn.Entries {
		if de.Type == proto.TypeDir && v.isAncestor(de.FID, dir) {
			return true
		}
	}
	return false
}

// SetMode updates the per-file protection bits.
func (v *Volume) SetMode(fid proto.FID, mode uint16) error {
	if err := v.checkWritable(); err != nil {
		return err
	}
	vn, err := v.Get(fid)
	if err != nil {
		return err
	}
	vn.Status.Mode = mode
	vn.Status.Version++
	v.markMeta(fid.Vnode)
	return nil
}

// SetOwner updates the owner.
func (v *Volume) SetOwner(fid proto.FID, owner string) error {
	if err := v.checkWritable(); err != nil {
		return err
	}
	vn, err := v.Get(fid)
	if err != nil {
		return err
	}
	vn.Status.Owner = owner
	vn.Status.Version++
	v.markMeta(fid.Vnode)
	return nil
}

// GetACL returns the access list protecting fid: its own if a directory,
// else the containing state is the directory's — callers pass the dir FID.
func (v *Volume) GetACL(dir proto.FID) (prot.ACL, error) {
	dn, err := v.Get(dir)
	if err != nil {
		return prot.ACL{}, err
	}
	if dn.Status.Type != proto.TypeDir {
		return prot.ACL{}, proto.ErrNotDir
	}
	return dn.ACL, nil
}

// Mount inserts a mount-point entry: a directory entry whose FID belongs to
// another volume. This is how volumes are spliced into the shared name
// space; a walker crossing an entry with a foreign volume ID re-resolves
// through the location database.
func (v *Volume) Mount(dir proto.FID, name string, target proto.FID) error {
	dn, err := v.dirForNewName(dir, name)
	if err != nil {
		return err
	}
	if target.Volume == v.id {
		return fmt.Errorf("%w: mount target in same volume", proto.ErrBadRequest)
	}
	v.enter(dn, proto.DirEntry{Name: name, FID: target, Type: proto.TypeDir})
	v.touchDir(dn)
	return nil
}

// Unmount removes a mount-point entry.
func (v *Volume) Unmount(dir proto.FID, name string) error {
	dn, err := v.mutableDir(dir)
	if err != nil {
		return err
	}
	de, ok := proto.LookupDirEntry(dn.Entries, name)
	if !ok {
		return fmt.Errorf("%w: %s", proto.ErrNoEnt, name)
	}
	if de.FID.Volume == v.id {
		return fmt.Errorf("%w: %s is not a mount point", proto.ErrBadRequest, name)
	}
	v.unlink(dn, name)
	v.touchDir(dn)
	return nil
}

// GoverningACL returns the access list that protects fid: its own list for
// a directory, its containing directory's list otherwise (§3.4's
// per-directory protection).
func (v *Volume) GoverningACL(fid proto.FID) (prot.ACL, error) {
	vn, err := v.Get(fid)
	if err != nil {
		return prot.ACL{}, err
	}
	if vn.Status.Type == proto.TypeDir {
		return vn.ACL, nil
	}
	parent, ok := v.vnodes[vn.Parent]
	if !ok || parent.Status.Type != proto.TypeDir {
		// Fall back to the root's list; a parentless file is a salvage case.
		parent = v.vnodes[RootVnode]
	}
	return parent.ACL, nil
}

// SetACL replaces a directory's access list.
func (v *Volume) SetACL(dir proto.FID, acl prot.ACL) error {
	if err := v.checkWritable(); err != nil {
		return err
	}
	dn, err := v.Get(dir)
	if err != nil {
		return err
	}
	if dn.Status.Type != proto.TypeDir {
		return proto.ErrNotDir
	}
	dn.ACL = acl.Clone()
	dn.Status.Version++
	v.markMeta(dir.Vnode)
	return nil
}
