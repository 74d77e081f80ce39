// Package vice implements the Vice cluster server (§2.3): the trusted file
// server that stores the shared name space in volumes, answers the Vice
// protocol, enforces access lists, maintains the replicated location
// database, serves advisory locks, breaks callbacks in revised mode, and
// coordinates volume and protection administration across servers.
package vice

import (
	"sort"
	"strings"
	"sync"

	"itcfs/internal/proto"
	"itcfs/internal/unixfs"
)

// LocDB is one replica of the location database (§3.1): the map from shared
// name space subtrees to the volumes mounted there and their custodians.
// Custodianship is on a subtree basis, so the database stays small: one
// entry per volume, not per file. Every cluster server holds a complete
// copy; changing it is expensive because it means updating every server,
// which is why the design keeps such changes rare.
type LocDB struct {
	mu sync.RWMutex
	// keyed by prefix
	// guarded by mu
	entries map[string]proto.LocEntry
	byVol   map[uint32]proto.LocEntry // guarded by mu
	version uint64                    // guarded by mu
}

// NewLocDB returns an empty location database.
func NewLocDB() *LocDB {
	return &LocDB{
		entries: make(map[string]proto.LocEntry),
		byVol:   make(map[uint32]proto.LocEntry),
	}
}

// Version counts applied updates; replicas with equal versions that saw the
// same stream are identical.
func (l *LocDB) Version() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.version
}

// Install applies an update: upserting entries and removing prefixes.
func (l *LocDB) Install(entries []proto.LocEntry, remove []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range remove {
		delete(l.entries, unixfs.Clean(p))
	}
	for _, le := range entries {
		le.Prefix = unixfs.Clean(le.Prefix)
		l.entries[le.Prefix] = le
	}
	// Rebuild the volume index from scratch. Removing a prefix must not
	// orphan a volume still mounted at another prefix, and upserting a
	// prefix under a new volume must not leave the old volume pointing at
	// it. When one volume is mounted at several prefixes, the
	// lexicographically smallest prefix wins, deterministically.
	l.byVol = make(map[uint32]proto.LocEntry, len(l.entries))
	for prefix, le := range l.entries {
		if cur, ok := l.byVol[le.Volume]; !ok || prefix < cur.Prefix {
			l.byVol[le.Volume] = le
		}
	}
	l.version++
}

// Resolve finds the entry whose prefix is the longest one covering path.
// This is how a server (prototype) or Venus (revised) locates a custodian.
func (l *LocDB) Resolve(path string) (proto.LocEntry, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	path = unixfs.Clean(path)
	for {
		if le, ok := l.entries[path]; ok {
			return le, true
		}
		if path == "/" {
			return proto.LocEntry{}, false
		}
		path = unixfs.Dir(path)
	}
}

// ResolveVolume finds the entry for a volume ID.
func (l *LocDB) ResolveVolume(id uint32) (proto.LocEntry, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	le, ok := l.byVol[id]
	return le, ok
}

// Entries returns all rows sorted by prefix (for snapshots and tests).
func (l *LocDB) Entries() []proto.LocEntry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]proto.LocEntry, 0, len(l.entries))
	for _, le := range l.entries {
		out = append(out, le)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix < out[j].Prefix })
	return out
}

// PathWithin returns the remainder of path below the entry's prefix, as a
// component list. It assumes Resolve matched.
func PathWithin(le proto.LocEntry, path string) []string {
	path = unixfs.Clean(path)
	if le.Prefix == "/" {
		if path == "/" {
			return nil
		}
		return strings.Split(strings.TrimPrefix(path, "/"), "/")
	}
	rest := strings.TrimPrefix(path, le.Prefix)
	rest = strings.TrimPrefix(rest, "/")
	if rest == "" {
		return nil
	}
	return strings.Split(rest, "/")
}
