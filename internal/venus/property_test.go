package venus

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"itcfs/internal/vice"
)

// Property-based coverage for the cache manager: a seeded random mix of
// opens, reads, writes, and long-held handles, with the cache invariants
// re-checked after every operation. The invariants, from §5.3's revised
// space-limited cache:
//
//  1. accounting — v.bytes equals the sum of status sizes over data-bearing
//     entries, and every indexed entry is on the LRU list;
//  2. bounded — the limit is only ever exceeded when every data-bearing
//     entry is pinned (open or dirty), i.e. when eviction has nothing it is
//     allowed to evict;
//  3. pinned — an entry with an open handle is never evicted;
//  4. ordered — pool files appear on the LRU list in most-recently-opened
//     order (opens touch; closes and background stores do not reorder);
//  5. owned — every cached pool file holds the bytes last written to its
//     path, however many times cache files have changed hands on eviction.
//
// Each seed runs in both modes: the limit is bytes in revised mode, the entry
// count in prototype mode.

const (
	propMaxBytes = 6000
	propMaxFiles = 5
)

// propShadow tracks, test-side, when each pool path was last opened and
// what was last written to it.
type propShadow struct {
	seq     int64
	opened  map[string]int64
	content map[string][]byte
}

func (s *propShadow) touch(path string) {
	s.seq++
	s.opened[path] = s.seq
}

func TestCacheInvariantsUnderRandomOps(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Revised, vice.Prototype} {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				testCacheInvariants(t, mode, seed)
			})
		}
	}
}

func testCacheInvariants(t *testing.T, mode vice.Mode, seed int64) {
	c := newTestCell(t, mode, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", func(cfg *Config) { cfg.MaxFiles, cfg.MaxBytes = propMaxFiles, propMaxBytes })

	const poolSize = 16
	pool := make([]string, poolSize)
	inPool := make(map[string]bool, poolSize)
	for i := range pool {
		pool[i] = fmt.Sprintf("/u/p%02d", i)
		inPool[pool[i]] = true
	}

	r := rand.New(rand.NewSource(seed))
	shadow := &propShadow{opened: make(map[string]int64), content: make(map[string][]byte)}
	for _, path := range pool {
		writeFile(t, v, path, "seed")
		shadow.touch(path)
		shadow.content[path] = []byte("seed")
	}
	var held []*Handle
	heldPath := make(map[*Handle]string)

	for op := 0; op < 300; op++ {
		path := pool[r.Intn(poolSize)]
		switch k := r.Intn(10); {
		case k < 4: // rewrite a pool file
			h, err := v.Open(nil, path, FlagWrite|FlagCreate|FlagTrunc)
			if err != nil {
				t.Fatalf("op %d: open %s for write: %v", op, path, err)
			}
			shadow.touch(path)
			data := pattern(200+r.Intn(1200), byte(op))
			if _, err := h.Write(data); err != nil {
				t.Fatalf("op %d: write %s: %v", op, path, err)
			}
			shadow.content[path] = data
			if err := h.Close(nil); err != nil {
				t.Fatalf("op %d: close %s: %v", op, path, err)
			}
		case k < 8: // read a pool file (a miss must refetch cleanly)
			h, err := v.Open(nil, path, FlagRead)
			if err != nil {
				t.Fatalf("op %d: open %s for read: %v", op, path, err)
			}
			shadow.touch(path)
			_ = h.Close(nil)
		case k < 9: // open a handle and hold it across later ops
			if len(held) < 4 {
				h, err := v.Open(nil, path, FlagRead)
				if err == nil {
					shadow.touch(path)
					held = append(held, h)
					heldPath[h] = path
				}
			}
		default: // release one held handle
			if len(held) > 0 {
				i := r.Intn(len(held))
				h := held[i]
				held = append(held[:i], held[i+1:]...)
				delete(heldPath, h)
				if err := h.Close(nil); err != nil {
					t.Fatalf("op %d: close held handle: %v", op, err)
				}
			}
		}
		checkCacheInvariants(t, v, op, held, heldPath, inPool, shadow)
	}
	for _, h := range held {
		_ = h.Close(nil)
	}
	if v.Stats().Evictions == 0 {
		t.Fatal("workload never triggered eviction; invariants 2-3 untested")
	}
}

// checkCacheInvariants asserts the five cache invariants listed atop this
// file. It takes v.mu itself, like any other external reader of the cache.
func checkCacheInvariants(t *testing.T, v *Venus, op int, held []*Handle,
	heldPath map[*Handle]string, inPool map[string]bool, shadow *propShadow) {
	t.Helper()
	v.mu.Lock()
	defer v.mu.Unlock()

	// (1) accounting: bytes is exactly the sum over data-bearing entries,
	// and both indexes only hold entries that are on the LRU list.
	var sum int64
	allPinned := true
	for el := v.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.cacheFile == "" {
			continue
		}
		sum += e.status.Size
		if e.open == 0 && !e.dirty {
			allPinned = false
		}
	}
	if sum != v.bytes {
		t.Fatalf("op %d: accounting drift: lru sums to %d bytes, counter says %d", op, sum, v.bytes)
	}
	for path, e := range v.byPath {
		if e.lruEl == nil {
			t.Fatalf("op %d: byPath[%s] entry is off the LRU list", op, path)
		}
	}
	for fid, e := range v.byFID {
		if e.lruEl == nil {
			t.Fatalf("op %d: byFID[%v] entry is off the LRU list", op, fid)
		}
	}

	// (2) bounded: over the limit only when eviction had no legal victim.
	over := v.bytes > propMaxBytes
	if v.cfg.Mode == vice.Prototype {
		over = v.lru.Len() > propMaxFiles
	}
	if over && !allPinned {
		t.Fatalf("op %d: cache holds %d files, %d bytes (limits %d, %d) with evictable entries remaining",
			op, v.lru.Len(), v.bytes, propMaxFiles, propMaxBytes)
	}

	// (3) pinned: held handles' entries are alive, data-bearing, and counted.
	for _, h := range held {
		if h.e.lruEl == nil {
			t.Fatalf("op %d: entry for held handle %s was evicted", op, heldPath[h])
		}
		if h.e.cacheFile == "" {
			t.Fatalf("op %d: held handle %s lost its data file", op, heldPath[h])
		}
		if h.e.open <= 0 {
			t.Fatalf("op %d: held handle %s has open count %d", op, heldPath[h], h.e.open)
		}
	}

	// (4) ordered: pool files sit on the LRU list in most-recently-opened
	// order. Directory listings interleave, so compare pool files only.
	last := int64(-1) // sentinel: front of list, nothing seen yet
	for el := v.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if !inPool[e.path] {
			continue
		}
		seq, ok := shadow.opened[e.path]
		if !ok {
			t.Fatalf("op %d: cached pool file %s was never opened by the test", op, e.path)
		}
		if last >= 0 && seq > last {
			t.Fatalf("op %d: LRU order violated: %s (opened at %d) sits behind an entry opened at %d",
				op, e.path, seq, last)
		}
		last = seq
	}

	// (5) owned: a cached pool file's contents are its own path's.
	for el := v.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if !inPool[e.path] || e.cacheFile == "" {
			continue
		}
		data, err := v.cfg.Local.ReadFile(e.cacheFile)
		if err != nil {
			t.Fatalf("op %d: %s: %v", op, e.path, err)
		}
		if !bytes.Equal(data, shadow.content[e.path]) {
			t.Fatalf("op %d: %s's cache file %s holds %d bytes that are not the %d last written to it",
				op, e.path, e.cacheFile, len(data), len(shadow.content[e.path]))
		}
	}
}
