package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// FS is the small slice of a filesystem the disk engine needs: append-only
// log files, whole-file reads, atomic whole-file replacement, and
// truncation. Production uses DirFS; crash tests substitute FaultFS.
type FS interface {
	// Open opens name for appending, creating it empty if absent.
	Open(name string) (File, error)
	// ReadFile returns the whole contents of name.
	ReadFile(name string) ([]byte, error)
	// WriteFileAtomic durably replaces name with data: after it returns nil
	// a crash yields either the old contents or the new, never a mix.
	WriteFileAtomic(name string, data []byte) error
	// Truncate shortens name to size bytes.
	Truncate(name string, size int64) error
	// Remove deletes name; absent files are not an error.
	Remove(name string) error
}

// File is an append-only log file handle.
type File interface {
	// Append writes b at the end of the file. It must not retain b or
	// modify it: the caller reuses the buffer as soon as Append returns
	// (walstore builds the next record in it).
	Append(b []byte) error
	// Sync flushes everything appended so far to stable storage.
	Sync() error
	Close() error
}

// DirFS is the operating-system FS rooted at a directory.
type DirFS string

func (d DirFS) path(name string) string { return filepath.Join(string(d), name) }

// Open opens name for appending, creating it empty if absent.
func (d DirFS) Open(name string) (File, error) {
	f, err := os.OpenFile(d.path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// ReadFile returns the whole contents of name.
func (d DirFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(d.path(name))
}

// WriteFileAtomic writes data to a temporary file, fsyncs it, renames it
// over name, and fsyncs the directory so the rename itself is durable.
func (d DirFS) WriteFileAtomic(name string, data []byte) error {
	tmp := d.path(name + ".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, d.path(name)); err != nil {
		return err
	}
	return d.syncDir()
}

// Truncate shortens name to size bytes.
func (d DirFS) Truncate(name string, size int64) error {
	return os.Truncate(d.path(name), size)
}

// Remove deletes name; absent files are not an error.
func (d DirFS) Remove(name string) error {
	err := os.Remove(d.path(name))
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

func (d DirFS) syncDir() error {
	dir, err := os.Open(string(d))
	if err != nil {
		return err
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", d, err)
	}
	return nil
}

type osFile struct{ f *os.File }

func (o osFile) Append(b []byte) error {
	_, err := o.f.Write(b)
	return err
}

func (o osFile) Sync() error  { return o.f.Sync() }
func (o osFile) Close() error { return o.f.Close() }
