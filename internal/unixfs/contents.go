package unixfs

import (
	"bytes"
	"hash/maphash"
	"sync"
)

// Contents is a table of regular-file contents that several FSs share, so
// that bytes many of them hold are kept once. An FS built on one (NewShared)
// interns what it installs (WriteFile, Adopt): a file whose bytes the table
// already holds takes the table's slice and copies nothing, and one it does
// not hold is copied (or adopted) once and entered. Contents a file shares
// are never written in place: a write to such a file first gives it bytes of
// its own, as a write to contents on loan does.
//
// Identity is the bytes themselves. The key is a maphash of them, and a hit
// is taken only if bytes.Equal confirms it; bytes whose hash the table
// already holds for other bytes are kept by their file alone. So sharing can
// never change what a file reads, even where two files that should agree do
// not. A key naming the contents from outside (a Vice file's FID and data
// version) would be free to compute but would hide exactly that
// disagreement, and a cryptographic hash would cost CPU that a 64-bit hash
// confirmed by comparison does not need.
//
// An entry lives while some file's data names it: each file holding it is
// one reference, dropped when the file's data is replaced, copied to be
// written, or the file's last link goes; an entry with none leaves the
// table. What is shared never depends on when the collector runs.
//
// A Contents is safe for concurrent use by its FSs. Its mutex is taken
// inside an FS's own and never the other way round.
type Contents struct {
	seed    maphash.Seed
	mu      sync.Mutex
	entries map[uint64]*content // by the hash of their bytes; guarded by mu
	bytes   int64               // total length of the entries' bytes; guarded by mu
}

// content is one entry of a Contents: bytes, read only for as long as they
// are in the table, and the number of files whose data names them.
type content struct {
	data []byte
	hash uint64
	refs int // guarded by Contents.mu
}

// NewContents returns an empty table.
func NewContents() *Contents {
	return &Contents{seed: maphash.MakeSeed(), entries: make(map[uint64]*content)}
}

// Len returns the number of distinct contents the table holds.
func (c *Contents) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the total length of the distinct contents the table holds.
func (c *Contents) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// intern returns the entry holding data, with a reference taken for the
// caller, and the bytes the caller's file is to hold. On a miss those bytes
// are data itself when owned and otherwise a copy of it, appended to spare
// (which the caller gives up; nil allocates), and they become the new entry.
// Bytes whose hash the table holds for other bytes get no entry: the result
// is a nil entry and the bytes a miss would have kept.
func (c *Contents) intern(data []byte, owned bool, spare []byte) (*content, []byte) {
	h := maphash.Bytes(c.seed, data)
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[h]
	if e != nil && bytes.Equal(e.data, data) {
		e.refs++
		return e, e.data
	}
	if !owned {
		data = append(spare, data...)
	}
	if e != nil {
		return nil, data
	}
	e = &content{data: data, hash: h, refs: 1}
	c.entries[h] = e
	c.bytes += int64(len(data))
	return e, data
}

// release drops one reference to e, which leaves the table with its last. A
// nil e (a file holding bytes of its own) releases nothing.
func (c *Contents) release(e *content) {
	if e == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.refs--; e.refs == 0 {
		delete(c.entries, e.hash)
		c.bytes -= int64(len(e.data))
	}
}
