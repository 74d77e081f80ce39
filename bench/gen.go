package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// File contents. Every file the benchmark stores is a slice of one
// seed-derived pattern with a header and a trailer stamped over its ends, so
// producing a version costs a 64-byte stamp (plus one memcpy for small
// files), checking a read's identity — which file, which version, how long —
// costs two 32-byte compares, and a full byte-for-byte check is a memcmp
// against the pattern. The program under test only ever sees the bytes.

const (
	stampLen    = 32
	minFileSize = 2 * stampLen
	patternSkew = 4096 // per-key start offsets into the pattern, so files differ
	stampMagic  = 0x49544342
)

type content struct {
	pattern []byte
	scratch []byte // the single-goroutine write buffer, reused across ops
}

func newContent(seed int64, maxSize int) *content {
	c := &content{pattern: make([]byte, maxSize+patternSkew)}
	// The generator's own rng: nothing else draws from it.
	rand.New(rand.NewSource(seed ^ 0x5eed0c0de)).Read(c.pattern)
	return c
}

func patternOffset(key uint32) int { return int(key*2654435761) % patternSkew }

func stamp(dst []byte, key, version uint32, size int, tail bool) {
	magic := uint32(stampMagic)
	if tail {
		magic = ^magic
	}
	binary.LittleEndian.PutUint32(dst[0:], magic)
	binary.LittleEndian.PutUint32(dst[4:], key)
	binary.LittleEndian.PutUint32(dst[8:], version)
	binary.LittleEndian.PutUint64(dst[12:], uint64(size))
	// The remaining 12 bytes repeat key and version, so a stamp is not
	// mistaken for pattern bytes.
	binary.LittleEndian.PutUint32(dst[20:], ^key)
	binary.LittleEndian.PutUint32(dst[24:], ^version)
	binary.LittleEndian.PutUint32(dst[28:], magic^key^version)
}

// fill writes the content of (key, version) into dst; len(dst) is the size.
func (c *content) fill(dst []byte, key, version uint32) {
	copy(dst, c.pattern[patternOffset(key):])
	stamp(dst, key, version, len(dst), false)
	stamp(dst[len(dst)-stampLen:], key, version, len(dst), true)
}

// bytesOf returns the content of (key, version, size) in a buffer the caller
// may use until its next call to bytesOf (one driver goroutine per content).
// Consecutive versions of one key at one size differ only in their stamps,
// so re-stamping the buffer in place is enough when key and size repeat.
func (c *content) bytesOf(key, version uint32, size int) []byte {
	if cap(c.scratch) < size {
		c.scratch = make([]byte, size)
	}
	buf := c.scratch[:size]
	c.fill(buf, key, version)
	return buf
}

// check reports whether got is the content of (key, version, size). The
// stamps are always compared; the body only when full is set.
func (c *content) check(got []byte, key, version uint32, size int, full bool) bool {
	if len(got) != size || size < minFileSize {
		return false
	}
	var want [stampLen]byte
	stamp(want[:], key, version, size, false)
	if !bytes.Equal(got[:stampLen], want[:]) {
		return false
	}
	stamp(want[:], key, version, size, true)
	if !bytes.Equal(got[size-stampLen:], want[:]) {
		return false
	}
	if !full {
		return true
	}
	off := patternOffset(key)
	return bytes.Equal(got[stampLen:size-stampLen], c.pattern[off+stampLen:off+size-stampLen])
}

// Operations. A workload is a generator of these; the runner executes them
// through virtue.FS and never looks at anything but the op.

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opStat
	opReadDir
	opMkdir
	opRemove
	opRemoveDir
)

// class is the latency class an op is timed under, assigned by the
// generator from what the op must cost by construction (and checked after
// the run against Venus's own counters).
type class uint8

const (
	clsCold  class = iota // ReadFile that must fetch
	clsWarm               // ReadFile served from the cache under a live callback
	clsStore              // WriteFile: open-for-write + write + close
	clsStat               // Stat with no fresh cached copy: one status RPC
	clsOther              // cached Stat, ReadDir, Mkdir, Remove, RemoveDir
	nClasses
)

var classNames = [nClasses]string{"open_cold", "open_warm", "store", "stat", "other"}

type op struct {
	kind    opKind
	class   class
	cli     uint8 // index of the client that issues it
	full    bool  // reads: compare every byte, not just the stamps
	newer   bool  // stats: the version must exceed the last one this client saw
	path    string
	key     uint32
	version uint32
	size    int32 // reads and stats: expected; writes: to write; readdir: entries expected
}

// fileState is what the last acknowledged store made true of one file; the
// verification passes read every such file back from a cold client.
type fileState struct {
	key     uint32
	version uint32
	size    int32
}

// seqHash is a running FNV-1a hash of every op a generator has produced:
// same seed, same sequence, same hash.
type seqHash struct {
	h    uint64
	nops int64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newSeqHash() *seqHash { return &seqHash{h: fnvOffset} }

func (m *seqHash) note(o *op) {
	var b [24]byte
	b[0], b[1], b[2] = byte(o.kind), byte(o.class), o.cli
	binary.LittleEndian.PutUint32(b[4:], o.key)
	binary.LittleEndian.PutUint32(b[8:], o.version)
	binary.LittleEndian.PutUint32(b[12:], uint32(o.size))
	binary.LittleEndian.PutUint64(b[16:], uint64(len(o.path)))
	h := m.h
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	for i := 0; i < len(o.path); i++ {
		h = (h ^ uint64(o.path[i])) * fnvPrime
	}
	m.h = h
	m.nops++
}

// fork returns a content sharing c's pattern with a write buffer of its own,
// for a second driver goroutine.
func (c *content) fork() *content { return &content{pattern: c.pattern} }
