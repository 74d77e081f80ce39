package venus

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/vice"
)

// TestDirectorySizeIsItsListing: a directory's Size is the length of its
// encoded listing. A station that patched its copy after its own mkdir
// reports the size another station fetches, and a cached directory counts
// the bytes of its listing as patched, which an open of it reads.
func TestDirectorySizeIsItsListing(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("proj", "/proj", "satya", 0)
			op := c.newVenus("s0", "operator", nil)
			acl := prot.NewACL()
			acl.Grant("satya", prot.RightsAll)
			acl.Grant("howard", prot.RightsAll)
			if err := op.SetACL(nil, "/proj", proto.ACLEncode(acl)); err != nil {
				t.Fatal(err)
			}
			a := c.newVenus("s0", "satya", nil)
			b := c.newVenus("s0", "howard", nil)
			for _, name := range []string{"x", "y", "z"} {
				writeFile(t, a, "/proj/"+name, name)
			}
			if entries, err := b.ReadDir(nil, "/proj"); err != nil || len(entries) != 3 {
				t.Fatalf("ReadDir = %+v, %v", entries, err)
			}
			checkCacheBytes(t, b, "after ReadDir")
			if err := b.Mkdir(nil, "/proj/sub", 0o755); err != nil {
				t.Fatal(err)
			}
			sa, err := a.Stat(nil, "/proj")
			if err != nil {
				t.Fatal(err)
			}
			sb, err := b.Stat(nil, "/proj")
			if err != nil {
				t.Fatal(err)
			}
			entries, err := b.ReadDir(nil, "/proj")
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(len(proto.DirListing(entries))); sa.Size != want || sb.Size != want {
				t.Fatalf("after b's mkdir: a's Stat says %d, b's %d, the listing is %d bytes", sa.Size, sb.Size, want)
			}
			checkCacheBytes(t, b, "after mkdir", "/proj")
		})
	}
}

// TestPatchedListingIsTheFetchedOne: after each directory change a station
// makes, the listing it holds is the one a fresh station fetches, entry for
// entry and in the same order. The new names sort before the old ones, where
// an edit that appends would put them last.
func TestPatchedListingIsTheFetchedOne(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("u", "/u", "satya", 0)
			v := c.newVenus("s0", "satya", nil)
			for i, op := range []struct {
				what string
				do   func(dir, other string) error
			}{
				{"create", func(dir, _ string) error { writeFile(t, v, dir+"/a", "new"); return nil }},
				{"mkdir", func(dir, _ string) error { return v.Mkdir(nil, dir+"/a", 0o755) }},
				{"symlink", func(dir, _ string) error { return v.Symlink(nil, dir+"/m", dir+"/a") }},
				{"link", func(dir, _ string) error { return v.Link(nil, dir+"/m", dir+"/a") }},
				{"remove", func(dir, _ string) error { return v.Remove(nil, dir+"/m") }},
				{"rename", func(dir, _ string) error { return v.Rename(nil, dir+"/n", dir+"/a") }},
				{"rename over", func(dir, _ string) error { return v.Rename(nil, dir+"/n", dir+"/m") }},
				{"rename across", func(dir, other string) error { return v.Rename(nil, dir+"/n", other+"/a") }},
			} {
				dir, other := fmt.Sprintf("/u/d%d", i), fmt.Sprintf("/u/e%d", i)
				for _, d := range []string{dir, other} {
					if err := v.Mkdir(nil, d, 0o755); err != nil {
						t.Fatal(err)
					}
				}
				writeFile(t, v, dir+"/m", "m")
				writeFile(t, v, dir+"/n", "n")
				writeFile(t, v, other+"/z", "z")
				for _, d := range []string{dir, other} {
					if _, err := v.ReadDir(nil, d); err != nil {
						t.Fatal(err)
					}
				}
				if err := op.do(dir, other); err != nil {
					t.Fatalf("%s: %v", op.what, err)
				}
				fresh := c.newVenus("s0", "satya", nil)
				for _, d := range []string{dir, other} {
					got, err := v.ReadDir(nil, d)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.ReadDir(nil, d)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s: %s lists %+v, a fetch %+v", op.what, d, got, want)
					}
				}
			}
		})
	}
}

// TestReadDirResultIsTheCallers: a station patches its memoized listing in
// place after its own changes, and a listing ReadDir returned earlier is the
// caller's alone, whether that ReadDir fetched the directory or found it
// cached: creates, removes and renames in that directory leave both as they
// were, and ReadDir lists what they did.
func TestReadDirResultIsTheCallers(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("u", "/u", "satya", 0)
			w := c.newVenus("s0", "satya", nil)
			for _, name := range []string{"b", "d", "f", "h"} {
				writeFile(t, w, "/u/"+name, name)
			}
			v := c.newVenus("s0", "satya", nil)
			fetched, err := v.ReadDir(nil, "/u")
			if err != nil {
				t.Fatal(err)
			}
			cached, err := v.ReadDir(nil, "/u")
			if err != nil {
				t.Fatal(err)
			}
			was := slices.Clone(fetched)
			if err := v.Remove(nil, "/u/b"); err != nil { // shifts the rest down
				t.Fatal(err)
			}
			writeFile(t, v, "/u/a", "a")
			writeFile(t, v, "/u/c", "c")
			if err := v.Rename(nil, "/u/h", "/u/e"); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(fetched, was) || !slices.Equal(cached, was) {
				t.Fatalf("a held listing changed under its caller: %+v and %+v, was %+v", fetched, cached, was)
			}
			now, err := v.ReadDir(nil, "/u")
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, de := range now {
				names = append(names, de.Name)
			}
			if !slices.Equal(names, []string{"a", "c", "d", "e", "f"}) {
				t.Fatalf("after the changes ReadDir lists %v", names)
			}
		})
	}
}

// TestConcurrentReadDirAndCreate: goroutines list a directory while others
// create files in it through one Venus, which patches the memoized listing
// in place. Run under -race: a listing shared past v.mu shows as a race
// between a reader's loop and a patch. Each reader's listings only grow,
// and end with every file.
func TestConcurrentReadDirAndCreate(t *testing.T) {
	const (
		creators = 2
		readers  = 2
		files    = 150
	)
	c := newTestCell(t, vice.Revised, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	if err := v.Mkdir(nil, "/u/d", 0o755); err != nil {
		t.Fatal(err)
	}
	// Cached before the race starts, so every listing is the memo's and no
	// fetch's reply can land over a patch.
	if _, err := v.ReadDir(nil, "/u/d"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := range creators {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < files; i += creators {
				h, err := v.Open(nil, fmt.Sprintf("/u/d/f%03d", i), FlagWrite|FlagCreate)
				if err == nil {
					err = h.Close(nil)
				}
				if err != nil {
					t.Errorf("create %d: %v", i, err)
					return
				}
			}
		}()
	}
	var rg sync.WaitGroup
	for r := range readers {
		rg.Add(1)
		go func() {
			defer rg.Done()
			seen := 0
			for last := false; !last; {
				select {
				case <-done:
					last = true
				default:
				}
				ents, err := v.ReadDir(nil, "/u/d")
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for i := 1; i < len(ents); i++ {
					if ents[i-1].Name >= ents[i].Name {
						t.Errorf("reader %d: listing out of order at %d: %+v", r, i, ents)
						return
					}
				}
				if len(ents) < seen {
					t.Errorf("reader %d: listing shrank from %d to %d", r, seen, len(ents))
					return
				}
				seen = len(ents)
			}
			if seen != files {
				t.Errorf("reader %d: the last listing holds %d of %d files", r, seen, files)
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()
}
