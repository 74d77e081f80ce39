package venus

import (
	"fmt"
	"slices"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/vice"
)

// TestDirectorySizeIsItsListing: a directory's Size is the length of its
// encoded listing. A station that patched its copy after its own mkdir
// reports the size another station fetches, and a cached directory counts
// the bytes its cache file holds.
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
			if _, bytes := b.CacheUsage(); bytes != cachedFileBytes(t, b) {
				t.Fatalf("after ReadDir the cache counts %d bytes, its files hold %d", bytes, cachedFileBytes(t, b))
			}
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
			if _, bytes := b.CacheUsage(); bytes != cachedFileBytes(t, b) {
				t.Fatalf("after mkdir the cache counts %d bytes, its files hold %d", bytes, cachedFileBytes(t, b))
			}
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
