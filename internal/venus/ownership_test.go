package venus

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/vice"
)

// Bulk data changes hands instead of being copied: a large fetch reply
// becomes the cache file, or what a cold ReadFile returns, and a store lends
// the cache file to the RPC. These tests pin what that must not break, and
// what it is for.

// beforeConn runs a hook on each request before forwarding it — the window in
// which a store's Bulk has left Venus but not yet reached the server.
type beforeConn struct {
	inner  Conn
	before func(req rpc.Request)
}

func (c beforeConn) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	c.before(req)
	return c.inner.Call(p, req)
}

// pattern returns n bytes that differ from position to position and from
// seed to seed.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ byte(i>>8) ^ seed
	}
	return b
}

func readAll(t *testing.T, v *Venus, path string, size int) []byte {
	t.Helper()
	h, err := v.Open(nil, path, FlagRead)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer h.Close(nil)
	buf := make([]byte, size+1)
	n, err := h.ReadAt(buf, 0)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return buf[:n]
}

// TestWriteDuringStoreLeavesLentBytesAlone writes through a second handle
// while the store of the same entry is parked in Call. The store sends the
// cache file's own bytes, lent, and the writer's connection passes them to
// the server as they lie; the write must replace them, not edit them,
// so the server receives the file as it was when the store began, and the
// entry stays dirty so that the second handle's close stores the write — and
// a write after a store has returned must not reach what the server holds
// either. Run on both sides of the hand-over size.
func TestWriteDuringStoreLeavesLentBytesAlone(t *testing.T) {
	for _, size := range []int{100, 300 << 10} {
		c := newTestCell(t, vice.Revised, "s0")
		c.mkVolume("u", "/u", "satya", 0)
		const path = "/u/f"
		v1 := pattern(size, 1)

		var inStore func()
		writer := c.newVenus("s0", "satya", nil)
		inner := writer.cfg.Connect
		writer.cfg.Connect = func(p *sim.Proc, server string) (Conn, error) {
			conn, err := inner(p, server)
			if err != nil {
				return nil, err
			}
			lent := conn.(wsConn)
			lent.lend = true
			return beforeConn{inner: lent, before: func(req rpc.Request) {
				if req.Op == rpc.Op(proto.OpStore) && inStore != nil {
					hook := inStore
					inStore = nil
					hook()
				}
			}}, nil
		}

		h1, err := writer.Open(nil, path, FlagWrite|FlagCreate|FlagTrunc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h1.Write(v1); err != nil {
			t.Fatal(err)
		}
		h2, err := writer.Open(nil, path, FlagWrite)
		if err != nil {
			t.Fatal(err)
		}
		fired := false
		inStore = func() {
			fired = true
			if _, err := h2.WriteAt([]byte("scribble"), 3); err != nil {
				t.Errorf("write during store: %v", err)
			}
		}
		if err := h1.Close(nil); err != nil {
			t.Fatal(err)
		}
		if !fired {
			t.Fatalf("size %d: the store never reached the connection", size)
		}
		reader := c.newVenus("s0", "satya", nil)
		if got := readAll(t, reader, path, size); !bytes.Equal(got, v1) {
			t.Fatalf("size %d: server received bytes written after the store began", size)
		}
		// The cache file itself does carry the write. Read through the handle
		// that is still open: the entry is dirty, so closing any handle on it
		// would store it.
		want := append([]byte(nil), v1...)
		copy(want[3:], "scribble")
		got := make([]byte, size)
		if _, err := h2.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("size %d: the write through the second handle was lost locally (%v)", size, err)
		}
		// That write was not in the bytes the first close stored, so the entry
		// stayed dirty and the second close stores it.
		if err := h2.Close(nil); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, c.newVenus("s0", "satya", nil), path, size); !bytes.Equal(got, want) {
			t.Fatalf("size %d: after both handles closed the server lacks the second handle's write", size)
		}
		// The stores are over; their Bulk may still be what the server keeps.
		h3, err := writer.Open(nil, path, FlagWrite)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h3.WriteAt([]byte("again"), 50); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, c.newVenus("s0", "satya", nil), path, size); !bytes.Equal(got, want) {
			t.Fatalf("size %d: a local write after the store changed what the server holds", size)
		}
		if err := h3.Close(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// allocatedBytes runs fn and returns how many bytes the whole process
// allocated meanwhile (client and server live in it).
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFetchKeepsTheReceiveBuffer is the client half of the hand-over gate: a
// 4 MiB miss through Venus.Open over the real transport allocates the buffer
// the reply is received into and nothing else of that size — server included,
// which streams the volume's own slice. Copying it into the cache file, as
// before, costs a second payload.
func TestFetchKeepsTheReceiveBuffer(t *testing.T) {
	const size = 4 << 20
	c := newTCPCell(t, vice.Revised)
	writer := c.tcpVenus(t, vice.Revised, "satya", "pw")
	reader := c.tcpVenus(t, vice.Revised, "howard", "pw")
	paths := []string{"/warm", "/f0", "/f1", "/f2", "/f3"}
	for i, p := range paths {
		h, err := writer.Open(nil, p, FlagWrite|FlagCreate|FlagTrunc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(pattern(size, byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(nil); err != nil {
			t.Fatal(err)
		}
	}
	open := func(p string) {
		h, err := reader.Open(nil, p, FlagRead)
		if err != nil {
			t.Fatal(err)
		}
		if st := h.Status(); st.Size != size {
			t.Fatalf("%s: fetched %d bytes", p, st.Size)
		}
		if err := h.Close(nil); err != nil {
			t.Fatal(err)
		}
	}
	open(paths[0]) // warm the pools, the connection and the root directory
	total := allocatedBytes(func() {
		for _, p := range paths[1:] {
			open(p)
		}
	})
	per := float64(total) / float64(len(paths)-1)
	if limit := 1.1 * size; per > limit {
		t.Fatalf("a 4 MiB fetch allocated %.0f bytes, want <= %.0f (1.1 x payload)", per, limit)
	}
	if got := readAll(t, reader, paths[2], size); !bytes.Equal(got, pattern(size, 2)) {
		t.Fatal("fetched file differs from what was stored")
	}
}

// TestFetchHandOverIsChosenByOwnership checks the rule on both sides: the
// cache file of a fetch whose reply a Peer handed over (a large one) is the
// reply's Bulk itself, while a small file's reply is lent and the file is
// copied out of its frame, which would otherwise stay pinned — head, tag and
// page rounding — for as long as the file is cached.
func TestFetchHandOverIsChosenByOwnership(t *testing.T) {
	c := newTCPCell(t, vice.Revised)
	writer := c.tcpVenus(t, vice.Revised, "satya", "pw")
	var bulk []byte // the last fetch reply's Bulk, as the transport delivered it
	var owned bool  // and whether it handed it over
	hook := func(req rpc.Request, resp rpc.Response) {
		if req.Op == rpc.Op(proto.OpFetch) {
			bulk, owned = resp.Bulk, resp.Owned
		}
	}
	reader := c.tcpVenus(t, vice.Revised, "howard", "pw")
	dial := reader.cfg.Connect
	reader.cfg.Connect = func(p *sim.Proc, server string) (Conn, error) {
		conn, err := dial(p, server)
		if err != nil {
			return nil, err
		}
		return hookConn{inner: conn, hook: hook}, nil
	}
	for _, tc := range []struct {
		path string
		size int
		kept bool
	}{
		{"/tiny", 100, false},
		{"/page", 64 << 10, false},
		{"/big", 256 << 10, true},
	} {
		h, err := writer.Open(nil, tc.path, FlagWrite|FlagCreate|FlagTrunc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(pattern(tc.size, 9)); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(nil); err != nil {
			t.Fatal(err)
		}
		rh, err := reader.Open(nil, tc.path, FlagRead)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := reader.cfg.Local.Lend(rh.e.cacheFile)
		if err != nil {
			t.Fatal(err)
		}
		if len(bulk) != tc.size || !bytes.Equal(cached, bulk) {
			t.Fatalf("%s: cached %d bytes, reply carried %d", tc.path, len(cached), len(bulk))
		}
		if kept := &cached[0] == &bulk[0]; kept != tc.kept || owned != tc.kept {
			t.Fatalf("%s (%d bytes): cache file shares the receive buffer = %v, reply owned = %v, want %v", tc.path, tc.size, kept, owned, tc.kept)
		}
		if err := rh.Close(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// keptSize is the file size of the whole-file read tests: past the hand-over
// size, so a cold ReadFile returns the frame its reply arrived in.
const keptSize = 1 << 20

// twoFileCache stands up a real server in mode holding files files of
// keptSize bytes, /f<i> carrying pattern i, and a reader on a Peer of its own
// whose cache holds two of them (and, in revised mode, the root listing). A
// non-nil hook sees every reply the reader receives.
func twoFileCache(t *testing.T, mode vice.Mode, files int, hook func(rpc.Request, rpc.Response)) (*Venus, []string) {
	t.Helper()
	c := newTCPCell(t, mode)
	writer := c.tcpVenus(t, mode, "satya", "pw")
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/f%d", i)
		if err := writer.WriteFile(nil, paths[i], pattern(keptSize, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	reader := c.tcpVenus(t, mode, "howard", "pw")
	reader.cfg.MaxFiles, reader.cfg.MaxBytes = 2, 2*keptSize+keptSize/2
	if hook != nil {
		dial := reader.cfg.Connect
		reader.cfg.Connect = func(p *sim.Proc, server string) (Conn, error) {
			conn, err := dial(p, server)
			if err != nil {
				return nil, err
			}
			return hookConn{inner: conn, hook: hook}, nil
		}
	}
	return reader, paths
}

// TestColdReadFileIsTheCallersAlone: a cold ReadFile of a hand-over-sized
// file returns the frame its reply arrived in, and the cache keeps a copy,
// which in a full cache lands in the buffer of the file the arrival evicts.
// Neither may ever be the other. Whatever the caller does to its result,
// later reads return the server's bytes; whatever the cache does — an
// eviction that hands a buffer on, a local write — every result a caller
// holds stays bit-identical.
func TestColdReadFileIsTheCallersAlone(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			var bulk []byte // the last fetch reply's Bulk, as the transport delivered it
			v, paths := twoFileCache(t, mode, 4, func(req rpc.Request, resp rpc.Response) {
				if req.Op == rpc.Op(proto.OpFetch) {
					bulk = resp.Bulk
				}
			})
			held := make([][]byte, len(paths)) // each file's ReadFile result, kept
			want := make([][]byte, len(paths)) // what each must still hold
			check := func(when string) {
				t.Helper()
				for i := range held {
					if held[i] != nil && !bytes.Equal(held[i], want[i]) {
						t.Fatalf("%s: the result of reading %s changed under its caller", when, paths[i])
					}
				}
			}
			read := func(i int, cold bool) []byte {
				t.Helper()
				before := v.Stats()
				got, err := v.ReadFile(nil, paths[i])
				if err != nil {
					t.Fatal(err)
				}
				if missed := v.Stats().Misses > before.Misses; missed != cold {
					t.Fatalf("read of %s missed = %v, want %v", paths[i], missed, cold)
				}
				if cold && &got[0] != &bulk[0] {
					t.Fatalf("cold read of %s: the result is not the reply's Bulk", paths[i])
				}
				return got
			}

			// Cold reads through a cache of two: from the third on, each
			// evicts the file read two before it and copies into its buffer.
			for i := range paths {
				held[i], want[i] = read(i, true), pattern(keptSize, byte(i))
				check("after reading " + paths[i])
			}
			if n := v.Stats().Evictions; n < int64(len(paths)-2) {
				t.Fatalf("%d evictions: the cache was never full", n)
			}

			// The caller scribbles over its result: the cache's copy is its own.
			last := len(paths) - 1
			for j := range held[last] {
				held[last][j] = 0xEE
			}
			want[last] = bytes.Clone(held[last])
			if got := read(last, false); !bytes.Equal(got, pattern(keptSize, byte(last))) {
				t.Fatal("a warm read after the caller scribbled over the cold result returned the scribble")
			}
			check("after a warm read")

			// A local write edits the cache file, never a result handed out.
			for _, i := range []int{last - 1, last} {
				next := pattern(keptSize, byte(0x80+i))
				if err := v.WriteFile(nil, paths[i], next); err != nil {
					t.Fatal(err)
				}
				check("after writing " + paths[i])
				if got := read(i, false); !bytes.Equal(got, next) {
					t.Fatalf("%s does not read back what was written", paths[i])
				}
			}
		})
	}
}

// TestConcurrentReadFilesUnderEviction is TestConcurrentOpensUnderEviction at
// the hand-over size, through ReadFile on a real Peer: four goroutines read
// four files through a cache of two, so most reads are cold and each copy
// lands in a buffer the eviction beside it frees. Every result is checked
// against its pattern and then overwritten, so a result that shared its
// array with the cache, or with another reader's, shows up as another
// read's wrong bytes (or, under -race, as a race).
func TestConcurrentReadFilesUnderEviction(t *testing.T) {
	const (
		files   = 4
		workers = 4
	)
	rounds := 12
	if testing.Short() {
		rounds = 3
	}
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			v, paths := twoFileCache(t, mode, files, nil)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						f := (i + w) % files
						got, err := v.ReadFile(nil, paths[f])
						if err != nil {
							t.Errorf("worker %d round %d: read %s: %v", w, i, paths[f], err)
							return
						}
						if !bytes.Equal(got, pattern(keptSize, byte(f))) {
							t.Errorf("worker %d round %d: read %s: %d bytes, not its own", w, i, paths[f], len(got))
							return
						}
						clear(got)
					}
				}(w)
			}
			wg.Wait()
			if st := v.Stats(); st.Evictions == 0 || st.Misses <= int64(files) {
				t.Fatalf("%d evictions, %d misses: the race was never set up", st.Evictions, st.Misses)
			}
		})
	}
}
