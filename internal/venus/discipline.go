package venus

import (
	"itcfs/internal/proto"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
)

// discipline is the client design a Venus runs, chosen once in New from
// Config.Mode: the prototype's (§3.5.1) or the revised one (§5.3). Its
// methods are the questions on which the two differ; Venus does everything
// else the same way in both.
type discipline interface {
	// ref names path to Vice.
	ref(p *sim.Proc, path string) (proto.Ref, error)
	// name names the cached file known by path and fid to Vice, for a store.
	name(path string, fid proto.FID) proto.Ref
	// lookup decides an open of path. It returns the cached copy to serve,
	// pinned: chosen, moved to the LRU front and counted open in one hold of
	// v.mu, so no install running beside the open can evict it before the
	// handle exists; hit reports that it counted in Stats.Hits. Or, with no
	// entry and no error, it returns the ref open is to fetch and the copy a
	// fetch that fails on transport may serve degraded (nil for none). An
	// error returns nothing pinned. The fetch stays open's: a whole-file
	// reader's buffer passed through this call would escape to the heap.
	lookup(p *sim.Proc, path string, flags OpenFlag) (e *entry, hit bool, fetch proto.Ref, stale *entry, err error)
	// readDir lists the directory at path.
	readDir(p *sim.Proc, path string) ([]proto.DirEntry, error)
	// full reports whether a cache of files entries holding bytes bytes is
	// over its limit.
	full(files int, bytes int64) bool
}

// prototype is check-on-open by pathname: whole pathnames go to the
// custodian, every open revalidates the cached copy with it, and the cache
// holds at most MaxFiles entries.
type prototype struct{ v *Venus }

func (prototype) ref(_ *sim.Proc, path string) (proto.Ref, error) {
	return proto.Ref{Path: unixfs.Clean(path)}, nil
}

func (prototype) name(path string, _ proto.FID) proto.Ref { return proto.Ref{Path: path} }

func (d prototype) lookup(p *sim.Proc, path string, flags OpenFlag) (*entry, bool, proto.Ref, *entry, error) {
	v, ref := d.v, proto.Ref{Path: path}
	v.mu.Lock()
	v.stats.Opens++
	e := v.byPath[path]
	if e == nil || e.cacheFile == "" {
		v.mu.Unlock()
		return nil, false, ref, nil, nil
	}
	if e.dirty {
		// Locally modified and not yet stored: our copy is the newest.
		v.hitLocked(e)
		v.mu.Unlock()
		return e, true, ref, nil, nil
	}
	version := e.status.Version
	v.mu.Unlock()
	e, hit, err := v.checkOnOpen(p, e, ref, version, flags)
	return e, hit, ref, nil, err
}

// readDir fetches the directory like a file, through the cache with
// check-on-open validation.
func (d prototype) readDir(p *sim.Proc, path string) ([]proto.DirEntry, error) {
	e, _, ref, _, err := d.lookup(p, path, 0)
	if err == nil && e == nil {
		e, err = d.v.fetchEntry(p, ref, path, 0, nil)
	}
	if err != nil {
		return nil, err
	}
	return d.v.listing(e)
}

func (d prototype) full(files int, _ int64) bool { return files > d.v.cfg.MaxFiles }

// revised is callbacks by FID: Venus translates pathnames to FIDs itself by
// walking cached directories, a cached copy stays valid until the custodian
// breaks its callback, and the cache is limited by bytes.
type revised struct{ v *Venus }

func (d revised) ref(p *sim.Proc, path string) (proto.Ref, error) {
	fid, err := d.v.Resolve(p, path)
	return proto.Ref{FID: fid}, err
}

func (revised) name(_ string, fid proto.FID) proto.Ref { return proto.Ref{FID: fid} }

// lookup trusts callbacks: a valid cached copy needs no server traffic at
// all, and walk serves it in the hold that found it.
func (d revised) lookup(p *sim.Proc, path string, flags OpenFlag) (*entry, bool, proto.Ref, *entry, error) {
	v := d.v
	fid, e, missing, err := v.walk(p, path, true, true)
	ref := proto.Ref{FID: fid}
	if e != nil {
		return e, true, ref, nil, nil
	}
	if err != nil {
		if proto.ErrToCode(err) == proto.CodeNoEnt && flags&FlagCreate != 0 {
			e, err = v.createFile(p, path)
			return e, false, ref, nil, err
		}
		if isTransportErr(err) {
			// Resolution needed the server (cached directories expired or
			// missing) and the server is gone; fall back to the last cached
			// copy of the file itself, if we hold one.
			v.mu.Lock()
			e = v.byPath[path]
			v.mu.Unlock()
			if v.degraded(e, flags) {
				return e, false, ref, nil, nil
			}
		}
		return nil, false, ref, nil, walkErr(err, missing)
	}
	// The walk found the file but no copy to serve as it stands.
	v.mu.Lock()
	e = v.byFID[fid]
	// A promise that merely outlived its TTL: revalidate, don't refetch.
	expired := e != nil && e.cacheFile != "" && e.valid && !e.dirty
	var version uint64
	if expired {
		version = e.status.Version
	}
	v.mu.Unlock()
	if expired {
		if served, hit, err := v.checkOnOpen(p, e, ref, version, flags); served != nil || err != nil {
			return served, hit, ref, nil, err
		}
	}
	return nil, false, ref, e, nil
}

func (d revised) readDir(p *sim.Proc, path string) ([]proto.DirEntry, error) {
	fid, err := d.v.Resolve(p, path)
	if err != nil {
		return nil, err
	}
	return d.v.dirEntries(p, fid, path)
}

func (d revised) full(_ int, bytes int64) bool { return bytes > d.v.cfg.MaxBytes }
