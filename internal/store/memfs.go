package store

import (
	"fmt"
	"os"
	"sync"
)

// MemFS is an in-memory FS for tests: same contract as DirFS with no disk.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte // guarded by mu
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte)}
}

// SetFile installs contents directly (test and fuzz preloading).
func (m *MemFS) SetFile(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = append([]byte(nil), data...)
}

// Bytes returns a copy of a file's contents and whether it exists.
func (m *MemFS) Bytes(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	return append([]byte(nil), b...), ok
}

// Open opens name for appending, creating it empty if absent.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}

// ReadFile returns the whole contents of name.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("memfs: %s: %w", name, os.ErrNotExist)
	}
	return append([]byte(nil), b...), nil
}

// WriteFileAtomic replaces name with data.
func (m *MemFS) WriteFileAtomic(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = append([]byte(nil), data...)
	return nil
}

// Truncate shortens name to size bytes.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return fmt.Errorf("memfs: %s: %w", name, os.ErrNotExist)
	}
	if size < int64(len(b)) {
		b = b[:size]
		// A slice keeps its whole array. Under half of it in use, copy what
		// is left, so a truncated log gives its memory back as a file on
		// disk gives back its blocks.
		if size < int64(cap(b))/2 {
			b = append([]byte(nil), b...)
		}
		m.files[name] = b
	}
	return nil
}

// Grow gives name room for n more bytes, creating it empty if absent, so
// that appends of up to that many allocate nothing, as appending to a file
// on disk allocates nothing. A test that counts allocations uses it to keep
// the slice's growth out of them.
func (m *MemFS) Grow(name string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b := m.files[name]; cap(b)-len(b) < n {
		m.files[name] = append(make([]byte, 0, len(b)+n), b...)
	}
}

// Remove deletes name; absent files are not an error.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

type memFile struct {
	fs   *MemFS
	name string
}

func (f *memFile) Append(b []byte) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = append(f.fs.files[f.name], b...)
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
