package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
)

// Crash-injection filesystem. FaultFS models a disk under a machine that
// loses power at a chosen moment:
//
//   - Every durability-relevant operation (append, fsync, atomic replace,
//     truncate, remove) counts as one crash event. Constructing the FS with
//     CrashAt == n makes the n-th event fail with ErrCrashed — possibly
//     after partial effect — and every operation after it fail too.
//   - Survivors() then reconstructs what stable storage holds. Bytes synced
//     before the crash always survive intact (that is the fsync contract).
//     Unsynced bytes are volatile: in Strict mode they are wholly lost; in
//     the default (generous) mode a seeded-random prefix of them survives,
//     possibly with flipped bits — the torn sector a real disk leaves.
//
// Everything is driven by a seeded generator, so a (seed, CrashAt) pair
// replays the identical crash. Run once with CrashAt == 0 (never crash) and
// read Events() to enumerate the crash points a workload exposes.
type FaultFS struct {
	mu   sync.Mutex
	seed int64      // guarded by mu
	rng  *rand.Rand // guarded by mu
	// 1-based event number to crash on; 0 = never.
	crashAt int  // guarded by mu
	event   int  // guarded by mu
	crashed bool // guarded by mu
	// Strict drops every unsynced byte at Survivors time, so recovered state
	// is exactly the synced (acknowledged) prefix. Set before use, never
	// mutated during a run.
	Strict bool
	files  map[string]*faultFile // guarded by mu
}

type faultFile struct {
	data   []byte
	synced int // bytes guaranteed durable
}

// ErrCrashed is returned by every FaultFS operation at and after the
// injected crash point.
var ErrCrashed = errors.New("store: injected crash")

// NewFaultFS returns a crash-injecting in-memory FS. crashAt is the 1-based
// durability event to crash on; 0 disables crashing (use Events to count).
func NewFaultFS(seed int64, crashAt int) *FaultFS {
	return &FaultFS{
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		crashAt: crashAt,
		files:   make(map[string]*faultFile),
	}
}

// Events returns the number of durability events so far.
func (f *FaultFS) Events() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.event
}

// step counts one durability event and reports whether this is the crash.
// Callers hold f.mu.
//
//itcvet:holds mu
func (f *FaultFS) step() bool {
	if f.crashed {
		return true
	}
	f.event++
	if f.crashAt != 0 && f.event >= f.crashAt {
		f.crashed = true
		return true
	}
	return false
}

// file returns name's entry, creating it if absent. Callers hold f.mu.
//
//itcvet:holds mu
func (f *FaultFS) file(name string) *faultFile {
	ff, ok := f.files[name]
	if !ok {
		ff = &faultFile{}
		f.files[name] = ff
	}
	return ff
}

// Open opens name for appending, creating it empty if absent. Opening is
// not a durability event.
func (f *FaultFS) Open(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	f.file(name)
	return &FaultFile{fs: f, name: name}, nil
}

// ReadFile returns the whole contents of name.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	ff, ok := f.files[name]
	if !ok {
		return nil, fmt.Errorf("faultfs: %s: %w", name, os.ErrNotExist)
	}
	return append([]byte(nil), ff.data...), nil
}

// WriteFileAtomic replaces name with data. On crash either the old or the
// new contents survive whole — the rename itself is atomic.
func (f *FaultFS) WriteFileAtomic(name string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if crash := f.step(); crash {
		if f.rng.Intn(2) == 0 { // rename won the race with the power cut
			ff := f.file(name)
			ff.data = append([]byte(nil), data...)
			ff.synced = len(ff.data)
		}
		return ErrCrashed
	}
	ff := f.file(name)
	ff.data = append([]byte(nil), data...)
	ff.synced = len(ff.data)
	return nil
}

// Truncate shortens name to size bytes. On crash the truncation may or may
// not have reached the disk.
func (f *FaultFS) Truncate(name string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	crash := f.step()
	apply := !crash || f.rng.Intn(2) == 0
	if apply {
		if ff, ok := f.files[name]; ok && size < int64(len(ff.data)) {
			ff.data = ff.data[:size]
			if ff.synced > int(size) {
				ff.synced = int(size)
			}
		}
	}
	if crash {
		return ErrCrashed
	}
	return nil
}

// Remove deletes name. On crash the removal may or may not have happened.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	crash := f.step()
	if !crash || f.rng.Intn(2) == 0 {
		delete(f.files, name)
	}
	if crash {
		return ErrCrashed
	}
	return nil
}

// FaultFile is the crash-injecting append handle FaultFS.Open returns.
type FaultFile struct {
	fs   *FaultFS
	name string
}

// Append writes b at the end of the file. On crash only a random prefix of
// b lands, and none of it is durable.
func (f *FaultFile) Append(b []byte) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ff := f.fs.file(f.name)
	if crash := f.fs.step(); crash {
		ff.data = append(ff.data, b[:f.fs.rng.Intn(len(b)+1)]...)
		return ErrCrashed
	}
	ff.data = append(ff.data, b...)
	return nil
}

// Sync flushes appended bytes to stable storage. On crash the flush is
// dropped: nothing new becomes durable.
func (f *FaultFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if crash := f.fs.step(); crash {
		return ErrCrashed
	}
	ff := f.fs.file(f.name)
	ff.synced = len(ff.data)
	return nil
}

// Close releases the handle. Closing is not a durability event.
func (f *FaultFile) Close() error { return nil }

// Survivors reconstructs stable storage after the crash as a fault-free
// MemFS to reopen a store over. Synced bytes survive intact. Unsynced bytes
// are wholly lost in Strict mode; otherwise a seeded-random prefix of them
// survives, with a chance of flipped bits. Deterministic per (seed,
// CrashAt) and idempotent.
func (f *FaultFS) Survivors() *MemFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	rng := rand.New(rand.NewSource(f.seed ^ 0x5eed))
	out := NewMemFS()
	names := make([]string, 0, len(f.files))
	for name := range f.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ff := f.files[name]
		keep := ff.synced
		if !f.Strict {
			keep += rng.Intn(len(ff.data) - ff.synced + 1)
		}
		b := append([]byte(nil), ff.data[:keep]...)
		if !f.Strict {
			for i := ff.synced; i < keep; i++ {
				if rng.Intn(16) == 0 {
					b[i] ^= 1 << uint(rng.Intn(8))
				}
			}
		}
		out.SetFile(name, b)
	}
	return out
}
