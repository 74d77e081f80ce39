// Package unixfs is an in-memory hierarchical file system with 4.2BSD-style
// semantics: inodes, directories, hard links, symbolic links, mode bits,
// whole-file and positional I/O, and rename. It plays the role the Unix file
// system played in the paper: Virtue's local ("root") file system, the cache
// directory Venus manages, and the storage substrate on each Vice cluster
// server (where every Vice file is represented as a data file plus a .admin
// file, §3.5.2).
//
// unixfs stores mode bits and ownership but does not enforce them: in the
// system under study, protection policy is Vice's job (access lists) and the
// local disk belongs entirely to the workstation's owner. Timestamps come
// from an injectable clock so simulated runs are deterministic.
//
// A file's bytes are in one of three states. They are the file's own,
// written in place by WriteAt and an in-capacity WriteFile; lent (Lend),
// which a borrower may still be reading; or shared, kept once in a Contents
// table for every FS built on it (NewShared), as the simulator's many
// workstations are. Lent and shared bytes are never written in place: the
// first write after a Lend, or to a shared file, gives the file a copy of its
// own. Sharing is invisible to readers and to UsedBytes, which counts each
// file's bytes whether or not another file holds the same ones.
//
// All methods are safe for concurrent use. No method ever blocks on anything
// but the internal lock, so callers inside the simulator never park while a
// lock is held.
package unixfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"unsafe"
)

// Errors mirror the Unix errno values the paper's interfaces surface.
var (
	ErrNotExist = errors.New("unixfs: no such file or directory")
	ErrExist    = errors.New("unixfs: file exists")
	ErrNotDir   = errors.New("unixfs: not a directory")
	ErrIsDir    = errors.New("unixfs: is a directory")
	ErrNotEmpty = errors.New("unixfs: directory not empty")
	ErrInvalid  = errors.New("unixfs: invalid argument")
	ErrLoop     = errors.New("unixfs: too many levels of symbolic links")
)

// Ino identifies an inode within one FS.
type Ino uint64

// FileType discriminates inode kinds.
type FileType uint8

// Inode kinds.
const (
	TypeRegular FileType = iota
	TypeDir
	TypeSymlink
)

func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("FileType(%d)", uint8(t))
	}
}

// maxSymlinks bounds symlink resolution depth, as in Unix.
const maxSymlinks = 16

// Stat describes one inode.
type Stat struct {
	Ino     Ino
	Type    FileType
	Mode    uint16 // Unix permission bits (metadata only; not enforced)
	Nlink   int
	Size    int64
	Mtime   int64  // nanoseconds on the owning clock
	Version uint64 // increments on every data or entry modification
	Owner   string
	Target  string // symlink target, if Type == TypeSymlink
}

// DirEntry is one name in a directory listing.
type DirEntry struct {
	Name string
	Ino  Ino
	Type FileType
}

type inode struct {
	ino   Ino
	typ   FileType
	mode  uint16
	nlink int32 // packs beside typ and mode, so an inode with shared fits 112 bytes
	data  []byte
	// loans counts the Lends of data not yet returned: while it is above
	// zero a borrower may still be reading those bytes, so they are replaced,
	// never written in place. It is reset when data becomes a slice nobody
	// else holds. Like every inode field it is guarded by FS.mu.
	loans int
	// shared is the Contents entry data lies in (all of it, or a prefix
	// after a Truncate), or nil when data is the file's own. Other FSs may
	// read those bytes at any time, so, as with a loan, they are replaced,
	// never written in place; the inode holds one reference to the entry
	// until data stops naming it.
	shared  *content
	entries map[string]Ino
	target  string
	mtime   int64
	version uint64
	owner   string
}

// Clock supplies timestamps. Simulated runs inject virtual time.
type Clock func() int64

// FS is one in-memory file system.
type FS struct {
	mu     sync.RWMutex
	inodes map[Ino]*inode // guarded by mu
	next   Ino            // guarded by mu
	root   Ino            // set at construction, immutable afterwards
	clock  Clock          // set at construction, immutable afterwards
	// contents, when non-nil, is the table this FS shares its files'
	// bytes through (NewShared); set at construction, immutable afterwards
	contents *Contents
	// total regular-file bytes, for disk accounting
	// guarded by mu
	used int64
}

// New returns an empty file system containing only a root directory. A nil
// clock yields all-zero timestamps.
func New(clock Clock) *FS { return NewShared(clock, nil) }

// NewShared is New for an FS that keeps its files' bytes in contents, shared
// with every other FS built on the same table: bytes that several files
// hold, here or there, are kept once. What each FS reads and UsedBytes are
// as they would be on its own. A nil contents is New.
func NewShared(clock Clock, contents *Contents) *FS {
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	fs := &FS{inodes: make(map[Ino]*inode), next: 1, clock: clock, contents: contents}
	root := &inode{ino: 1, typ: TypeDir, mode: 0o755, nlink: 2, entries: make(map[string]Ino)}
	fs.inodes[1] = root
	fs.root = 1
	fs.next = 2
	return fs
}

// Root returns the root directory's inode number.
func (fs *FS) Root() Ino { return fs.root }

// UsedBytes returns the total size of all regular files.
func (fs *FS) UsedBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.used
}

// isClean reports whether path is already in canonical form: absolute, no
// empty, "." or ".." components, no trailing slash (except the root itself).
// Nearly every path the system handles is, so the path helpers take
// allocation-free fast paths over such strings.
func isClean(path string) bool {
	if path == "" || path[0] != '/' {
		return false
	}
	if path == "/" {
		return true
	}
	start := 1
	for i := 1; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			switch path[start:i] {
			case "", ".", "..":
				return false
			}
			start = i + 1
		}
	}
	return true
}

// cleanElem reports whether a path element can be appended to a clean path
// with a single slash and keep it clean: one non-empty component.
func cleanElem(e string) bool {
	return e != "" && e != "." && e != ".." && strings.IndexByte(e, '/') < 0
}

// split normalizes an absolute path into components. "/" yields nil. The
// components of an already-clean path are subslices of it; splitting such a
// path allocates only the component slice.
func split(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: path %q must be absolute", ErrInvalid, path)
	}
	if isClean(path) {
		if path == "/" {
			return nil, nil
		}
		n := 0
		for i := 0; i < len(path); i++ {
			if path[i] == '/' {
				n++
			}
		}
		parts := make([]string, 0, n)
		start := 1
		for i := 1; i <= len(path); i++ {
			if i == len(path) || path[i] == '/' {
				parts = append(parts, path[start:i])
				start = i + 1
			}
		}
		return parts, nil
	}
	var parts []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
		default:
			parts = append(parts, c)
		}
	}
	return parts, nil
}

// splitInto is split appending into a caller-provided buffer, letting hot
// callers keep the parts slice on the stack for clean paths of ordinary
// depth. Unclean paths fall back to split and allocate.
func splitInto(path string, buf []string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: path %q must be absolute", ErrInvalid, path)
	}
	if !isClean(path) {
		return split(path)
	}
	if path == "/" {
		return buf, nil
	}
	start := 1
	for i := 1; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			buf = append(buf, path[start:i])
			start = i + 1
		}
	}
	return buf, nil
}

// Clean normalizes a path the way split does, returning the canonical form.
// A path already in canonical form is returned as-is, with no allocation.
func Clean(path string) string {
	if isClean(path) {
		return path
	}
	parts, err := split(path)
	if err != nil || len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}

// Join concatenates path elements with slashes and cleans the result.
func Join(elems ...string) string {
	// Fast path: a clean absolute head followed by single clean components
	// concatenates directly.
	if len(elems) > 0 && isClean(elems[0]) {
		n := len(elems[0])
		ok := true
		for _, e := range elems[1:] {
			if !cleanElem(e) {
				ok = false
				break
			}
			n += 1 + len(e)
		}
		if ok {
			if len(elems) == 1 {
				return elems[0]
			}
			var b strings.Builder
			b.Grow(n)
			if elems[0] != "/" {
				b.WriteString(elems[0])
			}
			for _, e := range elems[1:] {
				b.WriteByte('/')
				b.WriteString(e)
			}
			return b.String()
		}
	}
	return Clean("/" + strings.Join(elems, "/"))
}

// Base returns the final element of path ("/" for the root).
func Base(path string) string {
	if isClean(path) {
		if path == "/" {
			return "/"
		}
		return path[strings.LastIndexByte(path, '/')+1:]
	}
	parts, err := split(path)
	if err != nil || len(parts) == 0 {
		return "/"
	}
	return parts[len(parts)-1]
}

// Dir returns the parent of path ("/" for the root).
func Dir(path string) string {
	if isClean(path) {
		if i := strings.LastIndexByte(path, '/'); i > 0 {
			return path[:i]
		}
		return "/"
	}
	parts, err := split(path)
	if err != nil || len(parts) <= 1 {
		return "/"
	}
	return "/" + strings.Join(parts[:len(parts)-1], "/")
}

// walk resolves path to an inode, following symlinks in interior components
// always, and in the final component when followLast is true. Returns the
// resolved inode and, for the benefit of mutators, the parent directory and
// leaf name (post symlink resolution of the parent chain).
//
//itcvet:holds mu(read)
func (fs *FS) walk(path string, followLast bool, depth int) (parent *inode, name string, node *inode, err error) {
	if depth > maxSymlinks {
		return nil, "", nil, fmt.Errorf("%w: %s", ErrLoop, path)
	}
	var partsBuf [8]string
	parts, err := splitInto(path, partsBuf[:0])
	if err != nil {
		return nil, "", nil, err
	}
	cur := fs.inodes[fs.root]
	if len(parts) == 0 {
		return nil, "", cur, nil
	}
	for i, comp := range parts {
		if cur.typ != TypeDir {
			return nil, "", nil, fmt.Errorf("%w: %s", ErrNotDir, path)
		}
		last := i == len(parts)-1
		childIno, ok := cur.entries[comp]
		if !ok {
			if last {
				return cur, comp, nil, nil // parent exists, leaf missing
			}
			return nil, "", nil, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		child := fs.inodes[childIno]
		if child.typ == TypeSymlink && (!last || followLast) {
			// Re-resolve: target relative to the directory containing the link.
			target := child.target
			if !strings.HasPrefix(target, "/") {
				prefix := "/" + strings.Join(parts[:i], "/")
				target = prefix + "/" + target
			}
			rest := strings.Join(parts[i+1:], "/")
			full := target
			if rest != "" {
				full = target + "/" + rest
			}
			return fs.walk(full, followLast, depth+1)
		}
		if last {
			return cur, comp, child, nil
		}
		cur = child
	}
	panic("unreachable")
}

// lookup resolves path to an existing inode or ErrNotExist.
func (fs *FS) lookup(path string, followLast bool) (*inode, error) {
	_, _, node, err := fs.walk(path, followLast, 0)
	if err != nil {
		return nil, err
	}
	if node == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return node, nil
}

func (fs *FS) statOf(n *inode) Stat {
	st := Stat{
		Ino:     n.ino,
		Type:    n.typ,
		Mode:    n.mode,
		Nlink:   int(n.nlink),
		Mtime:   n.mtime,
		Version: n.version,
		Owner:   n.owner,
		Target:  n.target,
	}
	switch n.typ {
	case TypeRegular:
		st.Size = int64(len(n.data))
	case TypeDir:
		st.Size = int64(len(n.entries))
	case TypeSymlink:
		st.Size = int64(len(n.target))
	}
	return st
}

// Stat resolves path (following symlinks) and describes the inode.
func (fs *FS) Stat(path string) (Stat, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(path, true)
	if err != nil {
		return Stat{}, err
	}
	return fs.statOf(n), nil
}

// Lstat is Stat without following a final symlink component.
func (fs *FS) Lstat(path string) (Stat, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(path, false)
	if err != nil {
		return Stat{}, err
	}
	return fs.statOf(n), nil
}

// Exists reports whether path resolves to an inode.
func (fs *FS) Exists(path string) bool {
	_, err := fs.Stat(path)
	return err == nil
}

// create inserts a new inode under parent. Caller holds the write lock.
//
//itcvet:holds mu
func (fs *FS) create(parent *inode, name string, typ FileType, mode uint16, owner string) *inode {
	n := &inode{ino: fs.next, typ: typ, mode: mode, nlink: 1, mtime: fs.clock(), owner: owner}
	fs.next++
	if typ == TypeDir {
		n.entries = make(map[string]Ino)
		n.nlink = 2
		parent.nlink++
	}
	fs.inodes[n.ino] = n
	parent.entries[name] = n.ino
	parent.mtime = n.mtime
	parent.version++
	return n
}

// WriteFile creates or replaces the regular file at path with a copy of
// data, like the whole-file store operation Venus performs on close.
func (fs *FS) WriteFile(path string, data []byte, mode uint16, owner string) error {
	return fs.install(path, data, false, mode, owner)
}

// Adopt is WriteFile without the copy: data itself becomes the file's
// contents. The caller gives the slice up — nothing else may read or write
// it, or the bytes beyond its length up to its capacity, afterwards — and
// later writes to the file edit it in place.
func (fs *FS) Adopt(path string, data []byte, mode uint16, owner string) error {
	return fs.install(path, data, true, mode, owner)
}

// install creates or replaces the regular file at path. When owned, data
// becomes the contents as it is; otherwise it is copied first — into the
// file's present buffer where that is large enough and no borrower holds it.
// On an FS with a Contents table, bytes the table already holds are shared
// instead, and neither copied nor kept.
func (fs *FS) install(path string, data []byte, owned bool, mode uint16, owner string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, node, err := fs.walk(path, true, 0)
	if err != nil {
		return err
	}
	if node == nil {
		if parent == nil || name == "" {
			return fmt.Errorf("%w: %s", ErrInvalid, path)
		}
		node = fs.create(parent, name, TypeRegular, mode, owner)
	} else if node.typ == TypeDir {
		return fmt.Errorf("%w: %s", ErrIsDir, path)
	} else if node.typ == TypeSymlink {
		return fmt.Errorf("%w: unresolved symlink %s", ErrInvalid, path)
	}
	var shared *content
	switch {
	case fs.contents != nil:
		var spare []byte
		if node.shared == nil && node.loans == 0 {
			spare = node.data[:0]
		}
		shared, data = fs.contents.intern(data, owned, spare)
		fs.contents.release(node.shared)
	case owned:
	case node.loans > 0:
		data = append([]byte(nil), data...)
	default:
		data = append(node.data[:0], data...)
	}
	fs.used += int64(len(data)) - int64(len(node.data))
	node.data = data
	node.shared = shared
	node.loans = 0
	node.mtime = fs.clock()
	node.version++
	return nil
}

// ReadFile returns a copy of the regular file at path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(path, true)
	if err != nil {
		return nil, err
	}
	if n.typ == TypeDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	return append([]byte(nil), n.data...), nil
}

// Lend is ReadFile without the copy: it returns the file's contents
// themselves, for reading only, on loan until the caller gives them back with
// Return. Until then the slice stays bit-identical whatever happens to the
// file: contents with a loan outstanding are replaced by later writes, never
// written in place. So a caller may hand it to an RPC in flight or decode out
// of it with no lock held; the price is one copy of the file on the first
// write while any loan of those contents is outstanding. Loans of the same
// contents nest: each Lend is ended by its own Return.
func (fs *FS) Lend(path string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(path, true)
	if err != nil {
		return nil, err
	}
	if n.typ == TypeDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	n.loans++
	return n.data[:len(n.data):len(n.data)], nil
}

// Return ends one loan of the file at path: data is what Lend returned, and
// the caller reads it no more. Once every loan of the contents has ended,
// writes edit them in place again. A return whose data is no longer the
// file's contents — replaced, or the path renamed, removed or naming another
// file since — ends nothing: the contents lent are no longer the file's, and
// no write reaches them. Each Lend is returned at most once; a second return
// would end another borrower's loan.
func (fs *FS) Return(path string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(path, true)
	if err != nil || n.loans == 0 || unsafe.SliceData(n.data) != unsafe.SliceData(data) {
		return
	}
	n.loans--
}

// ReadAt copies file bytes at offset into buf, returning the count. Reads at
// or beyond EOF return 0.
func (fs *FS) ReadAt(path string, buf []byte, off int64) (int, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(path, true)
	if err != nil {
		return 0, err
	}
	if n.typ != TypeRegular {
		return 0, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	if off < 0 {
		return 0, ErrInvalid
	}
	if off >= int64(len(n.data)) {
		return 0, nil
	}
	return copy(buf, n.data[off:]), nil
}

// WriteAt writes buf into the file at offset, extending it with zeros if the
// offset is past EOF.
func (fs *FS) WriteAt(path string, buf []byte, off int64) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(path, true)
	if err != nil {
		return 0, err
	}
	if n.typ != TypeRegular {
		return 0, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	if off < 0 {
		return 0, ErrInvalid
	}
	size := max(off+int64(len(buf)), int64(len(n.data)))
	fs.resize(n, size)
	copy(n.data[off:], buf)
	n.mtime = fs.clock()
	n.version++
	return len(buf), nil
}

// resize makes n.data size bytes long — at least its present length — and
// safe to write in place, keeping the bytes it has and zero-filling those it
// gains. Spare capacity is used where there is some; contents on loan (Lend)
// or shared through a Contents table are copied to a buffer of their own
// first, even at an unchanged size.
//
//itcvet:holds mu
func (fs *FS) resize(n *inode, size int64) {
	old := int64(len(n.data))
	if n.shared != nil || n.loans > 0 || size > int64(cap(n.data)) {
		grown := make([]byte, size)
		copy(grown, n.data)
		fs.contents.release(n.shared)
		n.data = grown
		n.shared = nil
		n.loans = 0
	} else {
		n.data = n.data[:size]
		if size > old {
			clear(n.data[old:]) // spare capacity holds whatever was there before
		}
	}
	fs.used += size - old
}

// Truncate sets the file's length, extending with zeros or discarding.
func (fs *FS) Truncate(path string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(path, true)
	if err != nil {
		return err
	}
	if n.typ != TypeRegular {
		return fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	if size < 0 {
		return ErrInvalid
	}
	if old := int64(len(n.data)); size <= old {
		// Discarding writes no byte, so it is safe on contents on loan or
		// shared too; a shared file's shorter data still names its entry.
		n.data = n.data[:size]
		fs.used += size - old
	} else {
		fs.resize(n, size)
	}
	n.mtime = fs.clock()
	n.version++
	return nil
}

// Mkdir creates a directory at path. The parent must exist.
func (fs *FS) Mkdir(path string, mode uint16, owner string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, node, err := fs.walk(path, true, 0)
	if err != nil {
		return err
	}
	if node != nil {
		return fmt.Errorf("%w: %s", ErrExist, path)
	}
	if parent == nil || name == "" {
		return fmt.Errorf("%w: %s", ErrInvalid, path)
	}
	fs.create(parent, name, TypeDir, mode, owner)
	return nil
}

// MkdirAll creates path and any missing parents.
func (fs *FS) MkdirAll(path string, mode uint16, owner string) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	cur := ""
	for _, p := range parts {
		cur += "/" + p
		if err := fs.Mkdir(cur, mode, owner); err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// Symlink creates a symbolic link at path pointing at target.
func (fs *FS) Symlink(target, path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, node, err := fs.walk(path, false, 0)
	if err != nil {
		return err
	}
	if node != nil {
		return fmt.Errorf("%w: %s", ErrExist, path)
	}
	if parent == nil || name == "" {
		return fmt.Errorf("%w: %s", ErrInvalid, path)
	}
	n := fs.create(parent, name, TypeSymlink, 0o777, "")
	n.target = target
	return nil
}

// Readlink returns the target of the symlink at path.
func (fs *FS) Readlink(path string) (string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(path, false)
	if err != nil {
		return "", err
	}
	if n.typ != TypeSymlink {
		return "", fmt.Errorf("%w: %s is not a symlink", ErrInvalid, path)
	}
	return n.target, nil
}

// Link creates a hard link newpath referring to the file at oldpath.
func (fs *FS) Link(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oldNode, err := fs.lookup(oldpath, true)
	if err != nil {
		return err
	}
	if oldNode.typ == TypeDir {
		return fmt.Errorf("%w: hard link to directory", ErrIsDir)
	}
	parent, name, node, err := fs.walk(newpath, false, 0)
	if err != nil {
		return err
	}
	if node != nil {
		return fmt.Errorf("%w: %s", ErrExist, newpath)
	}
	if parent == nil || name == "" {
		return fmt.Errorf("%w: %s", ErrInvalid, newpath)
	}
	parent.entries[name] = oldNode.ino
	parent.version++
	parent.mtime = fs.clock()
	oldNode.nlink++
	return nil
}

// Remove unlinks the file or symlink at path. Directories need RemoveDir.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, node, err := fs.walk(path, false, 0)
	if err != nil {
		return err
	}
	if node == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if node.typ == TypeDir {
		return fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	fs.unlink(parent, name, node)
	return nil
}

// unlink detaches node from parent, freeing it at zero links. Caller holds
// the write lock.
//
//itcvet:holds mu
func (fs *FS) unlink(parent *inode, name string, node *inode) {
	delete(parent.entries, name)
	parent.version++
	parent.mtime = fs.clock()
	node.nlink--
	if node.nlink <= 0 {
		fs.free(node)
	}
}

// free deletes a node whose last link has gone, with its share of the disk
// and of the Contents table.
//
//itcvet:holds mu
func (fs *FS) free(node *inode) {
	if node.typ == TypeRegular {
		fs.used -= int64(len(node.data))
		fs.contents.release(node.shared)
	}
	delete(fs.inodes, node.ino)
}

// RemoveDir removes the empty directory at path.
func (fs *FS) RemoveDir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, node, err := fs.walk(path, false, 0)
	if err != nil {
		return err
	}
	if node == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if node.typ != TypeDir {
		return fmt.Errorf("%w: %s", ErrNotDir, path)
	}
	if node.ino == fs.root {
		return fmt.Errorf("%w: cannot remove root", ErrInvalid)
	}
	if len(node.entries) != 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, path)
	}
	delete(parent.entries, name)
	parent.nlink--
	parent.version++
	parent.mtime = fs.clock()
	delete(fs.inodes, node.ino)
	return nil
}

// RemoveAll removes path and all its children. Missing paths are not errors.
func (fs *FS) RemoveAll(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, node, err := fs.walk(path, false, 0)
	if err != nil {
		return err
	}
	if node == nil {
		return nil
	}
	if node.ino == fs.root {
		return fmt.Errorf("%w: cannot remove root", ErrInvalid)
	}
	fs.removeTree(node)
	delete(parent.entries, name)
	if node.typ == TypeDir {
		parent.nlink--
	}
	parent.version++
	parent.mtime = fs.clock()
	return nil
}

// removeTree drops one link to node and, for directories, everything
// beneath it. A file or symlink is freed with its last link, so one also
// linked from outside the tree survives under that name. Caller holds the
// write lock.
//
//itcvet:holds mu
func (fs *FS) removeTree(node *inode) {
	if node.typ == TypeDir {
		for _, childIno := range node.entries {
			if child, ok := fs.inodes[childIno]; ok {
				fs.removeTree(child)
			}
		}
		node.nlink = 0
	} else {
		node.nlink--
	}
	if node.nlink <= 0 {
		fs.free(node)
	}
}

// Rename moves oldpath to newpath, replacing a non-directory target. It
// works for files, symlinks and whole directory subtrees (the prototype's
// inability to rename Vice directories was an implementation artifact this
// substrate does not share, §5.1).
func (fs *FS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oldParent, oldName, node, err := fs.walk(oldpath, false, 0)
	if err != nil {
		return err
	}
	if node == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, oldpath)
	}
	if node.ino == fs.root {
		return fmt.Errorf("%w: cannot rename root", ErrInvalid)
	}
	newParent, newName, target, err := fs.walk(newpath, false, 0)
	if err != nil {
		return err
	}
	if newParent == nil || newName == "" {
		return fmt.Errorf("%w: %s", ErrInvalid, newpath)
	}
	// Renaming a directory under itself would orphan the subtree.
	if node.typ == TypeDir && fs.isAncestor(node, newParent) {
		return fmt.Errorf("%w: cannot move directory under itself", ErrInvalid)
	}
	if target != nil {
		if target.ino == node.ino {
			return nil
		}
		if target.typ == TypeDir {
			if len(target.entries) != 0 {
				return fmt.Errorf("%w: %s", ErrNotEmpty, newpath)
			}
			if node.typ != TypeDir {
				return fmt.Errorf("%w: %s", ErrIsDir, newpath)
			}
			newParent.nlink--
			delete(fs.inodes, target.ino)
		} else {
			fs.unlink(newParent, newName, target)
		}
	}
	delete(oldParent.entries, oldName)
	newParent.entries[newName] = node.ino
	if node.typ == TypeDir && oldParent != newParent {
		oldParent.nlink--
		newParent.nlink++
	}
	now := fs.clock()
	oldParent.version++
	oldParent.mtime = now
	newParent.version++
	newParent.mtime = now
	return nil
}

// isAncestor reports whether dir appears on the path from root to node
// (inclusive). Caller holds the lock.
// isAncestor reports whether node lies in the subtree rooted at dir.
// Caller holds the lock (read suffices).
//
//itcvet:holds mu(read)
func (fs *FS) isAncestor(dir, node *inode) bool {
	if dir == node {
		return true
	}
	if dir.typ != TypeDir {
		return false
	}
	for _, childIno := range dir.entries {
		child, ok := fs.inodes[childIno]
		if !ok {
			continue
		}
		if child.typ == TypeDir && fs.isAncestor(child, node) {
			return true
		}
	}
	return false
}

// ReadDir lists the directory at path in name order.
func (fs *FS) ReadDir(path string) ([]DirEntry, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(path, true)
	if err != nil {
		return nil, err
	}
	if n.typ != TypeDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, path)
	}
	out := make([]DirEntry, 0, len(n.entries))
	for name, ino := range n.entries {
		out = append(out, DirEntry{Name: name, Ino: ino, Type: fs.inodes[ino].typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Chmod replaces the permission bits on path.
func (fs *FS) Chmod(path string, mode uint16) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(path, true)
	if err != nil {
		return err
	}
	n.mode = mode
	n.version++
	return nil
}

// Walk visits every path under root in depth-first name order, calling fn
// with the path and stat of each inode (including root itself). If fn
// returns an error the walk stops and returns it.
func (fs *FS) Walk(root string, fn func(path string, st Stat) error) error {
	st, err := fs.Lstat(root)
	if err != nil {
		return err
	}
	if err := fn(Clean(root), st); err != nil {
		return err
	}
	if st.Type != TypeDir {
		return nil
	}
	entries, err := fs.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := fs.Walk(Join(root, e.Name), fn); err != nil {
			return err
		}
	}
	return nil
}

// CopyTree deep-copies the subtree at src (in this FS) to dst in the
// destination FS. dst must not exist; parents of dst must.
func CopyTree(srcFS *FS, src string, dstFS *FS, dst string) error {
	st, err := srcFS.Lstat(src)
	if err != nil {
		return err
	}
	switch st.Type {
	case TypeDir:
		if err := dstFS.Mkdir(dst, st.Mode, st.Owner); err != nil {
			return err
		}
		entries, err := srcFS.ReadDir(src)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := CopyTree(srcFS, Join(src, e.Name), dstFS, Join(dst, e.Name)); err != nil {
				return err
			}
		}
		return nil
	case TypeSymlink:
		target, err := srcFS.Readlink(src)
		if err != nil {
			return err
		}
		return dstFS.Symlink(target, dst)
	default:
		data, err := srcFS.ReadFile(src)
		if err != nil {
			return err
		}
		return dstFS.WriteFile(dst, data, st.Mode, st.Owner)
	}
}
