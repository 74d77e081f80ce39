// Package virtue implements the workstation file-system layer of §3.1 and
// Figure 3-2: a Unix-style interface over two name spaces. The local name
// space (the workstation's root file system) holds boot files, temporaries
// and private data; everything under the mount point (conventionally
// "/vice") is the shared name space, served by Venus from its whole-file
// cache. Symbolic links in the local space may point into "/vice" — that is
// how "/bin" on a Sun resolves to "/vice/unix/sun/bin" while the same name
// on a Vax resolves to "/vice/unix/vax/bin".
//
// Application programs see one hierarchical file system; whether a file is
// local or shared changes performance, never semantics (§3.2). An open file
// in either space is one venus.Handle with one offset: over Venus's cached
// copy for a shared file, over the file itself for a local one.
package virtue

import (
	"fmt"
	"strings"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
)

// MountPoint is the conventional root of the shared name space.
const MountPoint = "/vice"

// Open flags, re-exported from Venus so applications import only virtue.
const (
	FlagRead   = venus.FlagRead
	FlagWrite  = venus.FlagWrite
	FlagCreate = venus.FlagCreate
	FlagTrunc  = venus.FlagTrunc
)

// DirEntry is one name in a directory listing.
type DirEntry struct {
	Name  string
	IsDir bool
}

// Stat describes a file in either name space.
type Stat struct {
	Name    string
	Size    int64
	IsDir   bool
	Mode    uint16
	Owner   string
	Version uint64
	Shared  bool // true when the file lives in Vice
}

// FS is one workstation's file system view.
type FS struct {
	local *unixfs.FS
	venus *venus.Venus
	mount string
	// maxLinkDepth bounds local->vice symlink expansion.
	maxLinkDepth int
}

// New assembles the workstation view from a local file system and a Venus.
func New(local *unixfs.FS, v *venus.Venus) *FS {
	return &FS{local: local, venus: v, mount: MountPoint, maxLinkDepth: 16}
}

// NewWorkstation assembles a whole workstation round cfg: a Venus over
// cfg.Local reaching servers through cfg.Connect, both of its callback-break
// handlers registered on callbacks — the service the caller has given, or
// will give, every connection cfg.Connect opens, simulated or real — and the
// view over the two. The real connections built on callbacks report their
// calls and serves as cfg.Machine's, to cfg.Tracer and cfg.Metrics.
func NewWorkstation(cfg venus.Config, callbacks *rpc.Server) *FS {
	v := venus.New(cfg)
	callbacks.Observe(cfg.Machine, cfg.Tracer, cfg.Metrics)
	callbacks.Handle(rpc.Op(proto.OpCallbackBreak), v.HandleCallbackBreak)
	callbacks.Handle(rpc.Op(proto.OpBulkBreak), v.HandleBulkBreak)
	return New(cfg.Local, v)
}

// Local exposes the local file system (boot scripts, tests).
func (fs *FS) Local() *unixfs.FS { return fs.local }

// Venus exposes the cache manager (stats, login).
func (fs *FS) Venus() *venus.Venus { return fs.venus }

// target is the result of resolving a workstation path: either a path in
// the shared space (shared=true, path relative to the Vice root) or a local
// path.
type target struct {
	shared bool
	path   string
}

// resolve walks path at the Virtue level: component by component through
// the local space, expanding symbolic links, and diverting into the shared
// space the moment the walk enters the mount point. followLast controls
// whether a symlink in the final component is expanded.
func (fs *FS) resolve(path string, followLast bool) (target, error) {
	return fs.resolveDepth(path, followLast, 0)
}

func (fs *FS) resolveDepth(path string, followLast bool, depth int) (target, error) {
	if depth > fs.maxLinkDepth {
		return target{}, fmt.Errorf("%w: %s", unixfs.ErrLoop, path)
	}
	path = unixfs.Clean(path)
	if vicePath, ok := fs.underMount(path); ok {
		return target{shared: true, path: vicePath}, nil
	}
	// Walk local components looking for a symlink that crosses into /vice
	// or elsewhere.
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	prefix := ""
	for i, comp := range parts {
		if comp == "" {
			continue
		}
		prefix = prefix + "/" + comp
		last := i == len(parts)-1
		st, err := fs.local.Lstat(prefix)
		if err != nil {
			// Leaf may legitimately not exist (create); interior must.
			if last {
				return target{shared: false, path: path}, nil
			}
			return target{}, err
		}
		if st.Type == unixfs.TypeSymlink && (!last || followLast) {
			tgt := st.Target
			if !strings.HasPrefix(tgt, "/") {
				tgt = unixfs.Join(unixfs.Dir(prefix), tgt)
			}
			rest := strings.Join(parts[i+1:], "/")
			return fs.resolveDepth(unixfs.Join(tgt, rest), followLast, depth+1)
		}
	}
	return target{shared: false, path: path}, nil
}

// underMount reports whether path is inside the shared name space,
// returning the Vice-relative remainder.
func (fs *FS) underMount(path string) (string, bool) {
	if path == fs.mount {
		return "/", true
	}
	if strings.HasPrefix(path, fs.mount+"/") {
		return path[len(fs.mount):], true
	}
	return "", false
}

// Open opens path with the given flags. A shared file is Venus's open
// handle on its cached copy; a local file's handle is the same type over the
// local file system, with no Venus behind it.
func (fs *FS) Open(p *sim.Proc, path string, flags venus.OpenFlag) (*venus.Handle, error) {
	tgt, err := fs.resolve(path, true)
	if err != nil {
		return nil, err
	}
	if tgt.shared {
		return fs.venus.Open(p, tgt.path, flags)
	}
	return venus.OpenLocal(fs.local, tgt.path, flags, fs.venus.User())
}

// ReadFile reads an entire file. A shared file is Venus's to read: the same
// open, read and close as through Open, with the handle on Venus's frame.
func (fs *FS) ReadFile(p *sim.Proc, path string) ([]byte, error) {
	tgt, err := fs.resolve(path, true)
	if err != nil {
		return nil, err
	}
	if tgt.shared {
		return fs.venus.ReadFile(p, tgt.path)
	}
	return fs.local.ReadFile(tgt.path)
}

// WriteFile writes an entire file, creating or replacing it. A shared file
// is Venus's to write, as ReadFile's is to read; a local one is one
// unixfs.WriteFile.
func (fs *FS) WriteFile(p *sim.Proc, path string, data []byte) error {
	tgt, err := fs.resolve(path, true)
	if err != nil {
		return err
	}
	if tgt.shared {
		return fs.venus.WriteFile(p, tgt.path, data)
	}
	return fs.local.WriteFile(tgt.path, data, 0o644, fs.venus.User())
}

// Stat describes path.
func (fs *FS) Stat(p *sim.Proc, path string) (Stat, error) {
	tgt, err := fs.resolve(path, true)
	if err != nil {
		return Stat{}, err
	}
	if tgt.shared {
		st, err := fs.venus.Stat(p, tgt.path)
		if err != nil {
			return Stat{}, err
		}
		return Stat{
			Name:    unixfs.Base(path),
			Size:    st.Size,
			IsDir:   st.Type == proto.TypeDir,
			Mode:    st.Mode,
			Owner:   st.Owner,
			Version: st.Version,
			Shared:  true,
		}, nil
	}
	st, err := fs.local.Stat(tgt.path)
	if err != nil {
		return Stat{}, err
	}
	return Stat{
		Name:    unixfs.Base(path),
		Size:    st.Size,
		IsDir:   st.Type == unixfs.TypeDir,
		Mode:    st.Mode,
		Owner:   st.Owner,
		Version: st.Version,
	}, nil
}

// ReadDir lists a directory in either name space.
func (fs *FS) ReadDir(p *sim.Proc, path string) ([]DirEntry, error) {
	tgt, err := fs.resolve(path, true)
	if err != nil {
		return nil, err
	}
	if tgt.shared {
		entries, err := fs.venus.ReadDir(p, tgt.path)
		if err != nil {
			return nil, err
		}
		out := make([]DirEntry, len(entries))
		for i, e := range entries {
			out[i] = DirEntry{Name: e.Name, IsDir: e.Type == proto.TypeDir}
		}
		return out, nil
	}
	entries, err := fs.local.ReadDir(tgt.path)
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, len(entries))
	for i, e := range entries {
		out[i] = DirEntry{Name: e.Name, IsDir: e.Type == unixfs.TypeDir}
	}
	return out, nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(p *sim.Proc, path string, mode uint16) error {
	tgt, err := fs.resolve(path, false)
	if err != nil {
		return err
	}
	if tgt.shared {
		return fs.venus.Mkdir(p, tgt.path, mode)
	}
	return fs.local.Mkdir(tgt.path, mode, fs.venus.User())
}

// Remove unlinks a file or symlink.
func (fs *FS) Remove(p *sim.Proc, path string) error {
	tgt, err := fs.resolve(path, false)
	if err != nil {
		return err
	}
	if tgt.shared {
		return fs.venus.Remove(p, tgt.path)
	}
	return fs.local.Remove(tgt.path)
}

// RemoveDir removes an empty directory.
func (fs *FS) RemoveDir(p *sim.Proc, path string) error {
	tgt, err := fs.resolve(path, false)
	if err != nil {
		return err
	}
	if tgt.shared {
		return fs.venus.RemoveDir(p, tgt.path)
	}
	return fs.local.RemoveDir(tgt.path)
}

// Rename moves a file or subtree. Both ends must live in the same name
// space (and, for shared files, the same volume).
func (fs *FS) Rename(p *sim.Proc, from, to string) error {
	ft, err := fs.resolve(from, false)
	if err != nil {
		return err
	}
	tt, err := fs.resolve(to, false)
	if err != nil {
		return err
	}
	if ft.shared != tt.shared {
		return fmt.Errorf("%w: rename across local and shared spaces", proto.ErrBadRequest)
	}
	if ft.shared {
		return fs.venus.Rename(p, ft.path, tt.path)
	}
	return fs.local.Rename(ft.path, tt.path)
}

// Symlink creates a symbolic link. Links in the local space may point into
// the shared space (the Figure 3-2 arrangement); links inside Vice are
// created there.
func (fs *FS) Symlink(p *sim.Proc, target, path string) error {
	tgt, err := fs.resolve(path, false)
	if err != nil {
		return err
	}
	if tgt.shared {
		viceTarget := target
		if vp, ok := fs.underMount(unixfs.Clean(target)); ok {
			viceTarget = vp
		}
		return fs.venus.Symlink(p, viceTarget, tgt.path)
	}
	return fs.local.Symlink(target, tgt.path)
}

// Chmod updates protection bits.
func (fs *FS) Chmod(p *sim.Proc, path string, mode uint16) error {
	tgt, err := fs.resolve(path, true)
	if err != nil {
		return err
	}
	if tgt.shared {
		return fs.venus.SetMode(p, tgt.path, mode)
	}
	return fs.local.Chmod(tgt.path, mode)
}
