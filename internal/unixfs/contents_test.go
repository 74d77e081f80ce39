package unixfs

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"testing"
)

// sharedPair returns two FSs on one fresh Contents table, each holding /f
// with the same bytes, installed once by copy and once by adoption.
func sharedPair(t *testing.T, orig []byte) (a, b *FS, c *Contents) {
	t.Helper()
	c = NewContents()
	a, b = NewShared(nil, c), NewShared(nil, c)
	if err := a.WriteFile("/f", orig, 0o644, "t"); err != nil {
		t.Fatal(err)
	}
	if err := b.Adopt("/f", append([]byte(nil), orig...), 0o644, "t"); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || c.Bytes() != int64(len(orig)) {
		t.Fatalf("two files with the same bytes: table holds %d entries, %d bytes; want 1, %d", c.Len(), c.Bytes(), len(orig))
	}
	return a, b, c
}

func mustRead(t *testing.T, fs *FS, path string) []byte {
	t.Helper()
	b, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSharedContentsAreNeverWrittenInPlace writes to one FS's copy of
// contents two FSs share, every way a file's bytes can change, and checks
// that the other FS still reads the original: shared bytes are replaced,
// never edited. Each write leaves the writer's file its own bytes, so the
// table is left holding the other FS's.
func TestSharedContentsAreNeverWrittenInPlace(t *testing.T) {
	orig := bytes.Repeat([]byte("shared contents "), 64)
	patch := []byte("PATCH")
	for _, tc := range []struct {
		name  string
		write func(fs *FS) error
		want  []byte
	}{
		{"WriteAt", func(fs *FS) error {
			_, err := fs.WriteAt("/f", patch, 10)
			return err
		}, append(append(append([]byte(nil), orig[:10]...), patch...), orig[10+len(patch):]...)},
		{"Truncate then grow", func(fs *FS) error {
			if err := fs.Truncate("/f", 100); err != nil {
				return err
			}
			return fs.Truncate("/f", int64(len(orig)))
		}, append(append([]byte(nil), orig[:100]...), make([]byte, len(orig)-100)...)},
		{"WriteFile", func(fs *FS) error {
			return fs.WriteFile("/f", bytes.Repeat([]byte{'w'}, len(orig)), 0o644, "t")
		}, bytes.Repeat([]byte{'w'}, len(orig))},
		{"Adopt", func(fs *FS) error {
			return fs.Adopt("/f", bytes.Repeat([]byte{'a'}, len(orig)/2), 0o644, "t")
		}, bytes.Repeat([]byte{'a'}, len(orig)/2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, c := sharedPair(t, orig)
			if err := tc.write(a); err != nil {
				t.Fatal(err)
			}
			if got := mustRead(t, a, "/f"); !bytes.Equal(got, tc.want) {
				t.Fatalf("the writer reads %q; want %q", got, tc.want)
			}
			if got := mustRead(t, b, "/f"); !bytes.Equal(got, orig) {
				t.Fatal("a write on one FS changed what the other FS reads")
			}
			if got, want := a.UsedBytes()+b.UsedBytes(), int64(len(tc.want)+len(orig)); got != want {
				t.Fatalf("UsedBytes total %d; want %d", got, want)
			}
			if err := b.Remove("/f"); err != nil {
				t.Fatal(err)
			}
			if err := a.Remove("/f"); err != nil {
				t.Fatal(err)
			}
			if c.Len() != 0 || c.Bytes() != 0 {
				t.Fatalf("every file removed: table holds %d entries, %d bytes", c.Len(), c.Bytes())
			}
		})
	}
}

// TestLendOfSharedContents checks that loans work on shared contents as on
// a file's own: the lent slice holds still through writes on either FS, a
// return through a path whose contents have since changed ends nothing, and
// a write after every loan has ended still leaves the other FS's bytes
// alone.
func TestLendOfSharedContents(t *testing.T) {
	orig := bytes.Repeat([]byte{1, 2, 3, 4}, 256)
	a, b, _ := sharedPair(t, orig)
	lent := mustLend(t, a, "/f")
	if cap(lent) != len(lent) {
		t.Fatalf("Lend exposes %d bytes of spare capacity", cap(lent)-len(lent))
	}
	if _, err := a.WriteAt("/f", []byte{9}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt("/f", []byte{8}, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lent, orig) {
		t.Fatal("a write changed lent shared bytes")
	}
	a.Return("/f", lent) // stale: the write gave /f bytes of its own

	// A loan and its return on a file still sharing its bytes.
	if err := a.WriteFile("/g", orig, 0o644, "t"); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile("/g", orig, 0o644, "t"); err != nil {
		t.Fatal(err)
	}
	lent = mustLend(t, a, "/g")
	a.Return("/g", lent)
	if _, err := a.WriteAt("/g", []byte{7}, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lent, orig) || !bytes.Equal(mustRead(t, b, "/g"), orig) {
		t.Fatal("a write after the loan ended edited the shared bytes in place")
	}
}

// TestSharedOwnershipModel runs the ownership model on two FSs over one
// table at once, each on its own goroutine with the same seed, so the two
// install, lend, write and remove the same contents concurrently: each FS
// must still match its model and keep its loans bit-identical while the
// other shares its bytes. Under -race, a write to shared bytes is reported
// against the other FS's reads. Once both FSs remove every file, the table
// must be empty: every reference taken was dropped.
func TestSharedOwnershipModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := NewContents()
		fss := []*FS{NewShared(nil, c), NewShared(nil, c)}
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			for i, fs := range fss {
				t.Run(fmt.Sprint("fs", i), func(t *testing.T) {
					t.Parallel()
					runOwnershipModel(t, seed, 2000, fs)
				})
			}
		})
		for _, fs := range fss {
			for _, name := range modelNames {
				if err := fs.RemoveAll(name); err != nil {
					t.Fatal(err)
				}
			}
		}
		if c.Len() != 0 || c.Bytes() != 0 {
			t.Fatalf("seed %d: every file removed, table holds %d entries, %d bytes", seed, c.Len(), c.Bytes())
		}
	}
}

// TestSharedTableEmptiesWhenEveryFileGoes gives two FSs overlapping
// contents, several files and links to each, then takes every file away
// by each of the ways a file's data stops naming its entry: Remove of the
// last link, RemoveAll of a tree, Rename over it, a rewrite with bytes of
// its own and a WriteFile of other bytes that are then removed.
func TestSharedTableEmptiesWhenEveryFileGoes(t *testing.T) {
	c := NewContents()
	a, b := NewShared(nil, c), NewShared(nil, c)
	x, y, z := []byte("xxxx"), []byte("yyyyyy"), []byte("zzzzzzzz")
	for _, fs := range []*FS{a, b} {
		if err := fs.Mkdir("/d", 0o755, "t"); err != nil {
			t.Fatal(err)
		}
		for path, data := range map[string][]byte{"/x": x, "/x2": x, "/d/y": y, "/d/x": x, "/z": z, "/y": y} {
			if err := fs.WriteFile(path, data, 0o644, "t"); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Link("/z", "/z2"); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.Bytes(), int64(len(x)+len(y)+len(z)); c.Len() != 3 || got != want {
		t.Fatalf("table holds %d entries, %d bytes; want 3, %d", c.Len(), got, want)
	}
	if got, want := a.UsedBytes(), int64(3*len(x)+2*len(y)+len(z)); got != want {
		t.Fatalf("UsedBytes = %d; want %d, every file counted in full", got, want)
	}
	for _, fs := range []*FS{a, b} {
		steps := []func() error{
			func() error { return fs.RemoveAll("/d") },
			func() error { return fs.Rename("/x2", "/x") },
			func() error { _, err := fs.WriteAt("/x", []byte{0}, 0); return err },
			func() error { return fs.WriteFile("/y", []byte("other"), 0o644, "t") },
			func() error { return fs.Remove("/y") },
			func() error { return fs.Remove("/z") },
		}
		for i, step := range steps {
			if err := step(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	// Each FS's /z2 is the last link to z; /x holds bytes of its own.
	if c.Len() != 1 || c.Bytes() != int64(len(z)) {
		t.Fatalf("table holds %d entries, %d bytes; want z's alone", c.Len(), c.Bytes())
	}
	for _, fs := range []*FS{a, b} {
		if err := fs.Rename("/x", "/z2"); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("every shared file gone: table holds %d entries, %d bytes", c.Len(), c.Bytes())
	}
}

// TestCollidingHashKeepsItsOwnBytes plants an entry under the hash of some
// bytes but holding others, as a 64-bit collision would: a file installed
// with the first bytes must read them, not the entry's, and keep them as
// its own.
func TestCollidingHashKeepsItsOwnBytes(t *testing.T) {
	c := NewContents()
	want, other := []byte("the file's bytes"), []byte("other bytes, same hash")
	h := maphash.Bytes(c.seed, want)
	planted := &content{data: other, hash: h, refs: 1}
	c.entries[h] = planted
	fs := NewShared(nil, c)
	for _, install := range []func() error{
		func() error { return fs.WriteFile("/f", want, 0o644, "t") },
		func() error { return fs.Adopt("/f", append([]byte(nil), want...), 0o644, "t") },
	} {
		if err := install(); err != nil {
			t.Fatal(err)
		}
		if got := mustRead(t, fs, "/f"); !bytes.Equal(got, want) {
			t.Fatalf("a file installed under a colliding hash reads %q; want %q", got, want)
		}
		if c.entries[h] != planted || planted.refs != 1 {
			t.Fatal("a colliding install took a reference to the entry it does not match")
		}
	}
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if c.entries[h] != planted || planted.refs != 1 {
		t.Fatal("removing a file with bytes of its own released another file's entry")
	}
}
