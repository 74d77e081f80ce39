package venus

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"itcfs/internal/trace"
	"itcfs/internal/vice"
)

// Venus under concurrent callers: a real workstation's processes each call
// into one Venus from a goroutine of their own, where the simulator's run one
// at a time. Both tests drive the direct wsConn (no transport, no park), so
// the only interleavings are Venus's own.

// TestConcurrentOpensUnderEviction holds Venus to its rule that an entry
// leaves a hold of v.mu pinned or not at all: with a cache that fits two of
// eight files, every open races some other goroutine's install and the
// eviction it runs. Chosen under one hold and pinned under a later one, an
// entry loses its cache file in between and the read fails on a file that
// exists. The files are all one size, so each install takes over its
// victim's cache file and buffer: a read is checked byte for byte, since a
// file that answers for its old owner still reads the right length. In
// prototype mode every hit is revalidated, and the open holds its entry
// unpinned across that RPC.
func TestConcurrentOpensUnderEviction(t *testing.T) {
	const (
		files   = 8
		size    = 1000
		workers = 4
	)
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("u", "/u", "satya", 0)
			v := c.newVenus("s0", "satya", func(cfg *Config) { cfg.MaxFiles, cfg.MaxBytes = 2, 2500 })
			paths := make([]string, files)
			for i := range paths {
				paths[i] = fmt.Sprintf("/u/f%d", i)
				writeFile(t, v, paths[i], string(pattern(size, byte(i))))
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					buf := make([]byte, size+1)
					for i := 0; i < rounds; i++ {
						f := (i*7 + w*3) % files
						h, err := v.Open(nil, paths[f], FlagRead)
						if err != nil {
							t.Errorf("worker %d round %d: open %s: %v", w, i, paths[f], err)
							return
						}
						n, err := h.ReadAt(buf, 0)
						_ = h.Close(nil)
						if err != nil || n != size {
							t.Errorf("worker %d round %d: read %s: %d bytes, %v", w, i, paths[f], n, err)
							return
						}
						if !bytes.Equal(buf[:n], pattern(size, byte(f))) {
							t.Errorf("worker %d round %d: read %s: another file's bytes", w, i, paths[f])
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if v.Stats().Evictions == 0 {
				t.Fatal("no eviction: the race was never set up")
			}
		})
	}
}

// TestCacheCountersUnderConcurrentOpens: the registry's cache hit and miss
// counters agree with Stats however many goroutines open at once. Each open
// counts its own outcome where Stats counts it; one that counted what it saw
// Stats grow from its start to its end would count other goroutines' opens as
// well. Warm opens all hit; in a cache that holds two of the files they miss
// too (and in revised mode so do the directory fetches their walks make).
func TestCacheCountersUnderConcurrentOpens(t *testing.T) {
	const (
		files   = 8
		size    = 1000
		workers = 8
	)
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		for _, cached := range []int{files, 2} {
			t.Run(fmt.Sprintf("%s/cache%d", mode, cached), func(t *testing.T) {
				c := newTestCell(t, mode, "s0")
				c.mkVolume("u", "/u", "satya", 0)
				reg := trace.NewRegistry()
				v := c.newVenus("s0", "satya", func(cfg *Config) {
					cfg.Metrics, cfg.MaxFiles, cfg.MaxBytes = reg, cached, int64(cached*size+size/2)
				})
				paths := make([]string, files)
				for i := range paths {
					paths[i] = fmt.Sprintf("/u/f%d", i)
					writeFile(t, v, paths[i], string(pattern(size, byte(i))))
				}
				before := v.Stats()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < rounds; i++ {
							h, err := v.Open(nil, paths[(i+w)%files], FlagRead)
							if err != nil {
								t.Errorf("worker %d round %d: %v", w, i, err)
								return
							}
							_ = h.Close(nil)
						}
					}(w)
				}
				wg.Wait()
				st := v.Stats()
				hits, misses := reg.Counter(trace.MetricVenusCacheHits).Value(), reg.Counter(trace.MetricVenusCacheMisses).Value()
				if hits != st.Hits || misses != st.Misses {
					t.Fatalf("counters say %d hits, %d misses; Stats says %d, %d", hits, misses, st.Hits, st.Misses)
				}
				switch hits, misses := st.Hits-before.Hits, st.Misses-before.Misses; {
				case cached == files && (hits != workers*int64(rounds) || misses != 0):
					t.Fatalf("%d warm opens made %d hits and %d misses", workers*rounds, hits, misses)
				case cached < files && misses == 0:
					t.Fatal("no open missed: the small cache held every file")
				}
			})
		}
	}
}

// TestConcurrentHandlesRaceFree is for the race detector: readers, Stats and
// one overwriting writer share files in a roomy cache, so nothing is evicted
// and every report is of an entry field read off the lock.
func TestConcurrentHandlesRaceFree(t *testing.T) {
	const files = 4
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	c := newTestCell(t, vice.Revised, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/u/f%d", i)
		writeFile(t, v, paths[i], "v0")
	}
	var wg sync.WaitGroup
	run := func(name string, step func(i int, path string) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := step(i, paths[i%files]); err != nil {
					t.Errorf("%s round %d: %v", name, i, err)
					return
				}
			}
		}()
	}
	read := func(_ int, path string) error {
		h, err := v.Open(nil, path, FlagRead)
		if err != nil {
			return err
		}
		defer h.Close(nil)
		if _, err := h.Seek(0, 2); err != nil {
			return err
		}
		if st := h.Status(); st.FID.IsZero() {
			return fmt.Errorf("%s: open handle has no FID", path)
		}
		_, err = h.ReadAt(make([]byte, 8), 0)
		return err
	}
	run("reader A", read)
	run("reader B", read)
	run("writer", func(i int, path string) error {
		h, err := v.Open(nil, path, FlagWrite|FlagTrunc)
		if err != nil {
			return err
		}
		if _, err := h.Write([]byte(fmt.Sprintf("v%d", i))); err != nil {
			return err
		}
		return h.Close(nil)
	})
	run("stat", func(_ int, path string) error {
		_, err := v.Stat(nil, path)
		return err
	})
	wg.Wait()
}
