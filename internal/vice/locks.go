package vice

import (
	"fmt"
	"sync"

	"itcfs/internal/proto"
)

// LockTable provides the single-writer/multi-reader advisory locks of §3.6.
// Locks are advisory: Vice guarantees fetch/store action consistency even
// without them, but cooperating applications can serialize through them.
// The prototype implemented this as a dedicated lock-server process with
// lock tables in its virtual memory; the revised single-process server
// keeps the table as shared global data, which is what this is.
type LockTable struct {
	mu    sync.Mutex
	locks map[proto.FID]*lockState // guarded by mu
}

type lockState struct {
	readers map[string]int // user -> hold count
	writer  string         // exclusive holder, or ""
}

// NewLockTable returns an empty table.
func NewLockTable() *LockTable {
	return &LockTable{locks: make(map[proto.FID]*lockState)}
}

// Lock acquires a shared or exclusive advisory lock on fid for user. It
// does not block: a conflicting request fails with ErrLocked, leaving retry
// policy to the application, as in the prototype.
func (t *LockTable) Lock(fid proto.FID, user string, exclusive bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.locks[fid]
	if st == nil {
		st = &lockState{readers: make(map[string]int)}
		t.locks[fid] = st
	}
	if exclusive {
		if st.writer != "" && st.writer != user {
			return fmt.Errorf("%w: write-locked by %s", proto.ErrLocked, st.writer)
		}
		if len(st.readers) > 1 || (len(st.readers) == 1 && st.readers[user] == 0) {
			return fmt.Errorf("%w: read-locked", proto.ErrLocked)
		}
		st.writer = user
		return nil
	}
	if st.writer != "" && st.writer != user {
		return fmt.Errorf("%w: write-locked by %s", proto.ErrLocked, st.writer)
	}
	st.readers[user]++
	return nil
}

// Unlock releases user's locks on fid (both shared and exclusive holds).
func (t *LockTable) Unlock(fid proto.FID, user string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.locks[fid]
	if st == nil {
		return fmt.Errorf("%w: not locked", proto.ErrBadRequest)
	}
	held := false
	if st.writer == user {
		st.writer = ""
		held = true
	}
	if st.readers[user] > 0 {
		delete(st.readers, user)
		held = true
	}
	if !held {
		return fmt.Errorf("%w: %s holds no lock", proto.ErrBadRequest, user)
	}
	if st.writer == "" && len(st.readers) == 0 {
		delete(t.locks, fid)
	}
	return nil
}

// Reset drops every lock: the server process died and its in-memory lock
// table died with it (the prototype kept locks in the lock server's virtual
// memory — a crash loses them all).
func (t *LockTable) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.locks = make(map[proto.FID]*lockState)
}

// ReleaseAllFor drops every lock held by user (connection teardown).
func (t *LockTable) ReleaseAllFor(user string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for fid, st := range t.locks {
		if st.writer == user {
			st.writer = ""
		}
		delete(st.readers, user)
		if st.writer == "" && len(st.readers) == 0 {
			delete(t.locks, fid)
		}
	}
}
