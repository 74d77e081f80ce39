package unixfs

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// modelFile is the copy-everything reference for one inode: it owns its
// bytes outright and every operation on it copies.
type modelFile struct{ data []byte }

// loan is a slice Lend handed out, the path it was lent from, and what it
// held at that moment.
type loan struct {
	path string
	lent []byte
	want []byte
}

// TestOwnershipModel drives seeded random WriteFile/Adopt/Lend/Return/
// WriteAt/Truncate/Remove/Link/Rename sequences against the reference and
// asserts the two ownership rules: a file's contents always equal the
// model's, and a lent slice is bit-identical until its loan is returned.
// Loans overlap on one file and end in random order, most of them stale: by
// the time they end, WriteFile, Adopt or a write has replaced the contents
// they lent, or Rename, Link and Remove have moved the name they came
// through. Those not returned are held to the end, so every later operation
// has had its chance at them. A return that ended a loan it did not own
// would let a write edit another loan's bytes in place. A borrower goroutine
// re-reads the held loans while the operations run, so under -race an
// in-place write to lent bytes is reported even where it happens to store the
// value already there.
func TestOwnershipModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runOwnershipModel(t, seed, 3000, New(nil))
	}
}

// modelNames are the paths runOwnershipModel works on.
var modelNames = []string{"/a", "/b", "/c", "/d", "/e"}

func runOwnershipModel(t *testing.T, seed int64, steps int, fs *FS) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := modelNames
	model := map[string]*modelFile{}

	var (
		mu    sync.Mutex // guards loans between the driver and the borrower
		loans []loan
		stop  = make(chan struct{})
		done  = make(chan struct{})
	)
	checkLoans := func() {
		mu.Lock()
		defer mu.Unlock()
		for i, l := range loans {
			if !bytes.Equal(l.lent, l.want) {
				t.Errorf("seed %d: loan %d changed after it was lent", seed, i)
			}
		}
	}
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				checkLoans()
			}
		}
	}()

	payload := func() []byte {
		b := make([]byte, rng.Intn(600))
		rng.Read(b)
		return b
	}
	for step := 0; step < steps && !t.Failed(); step++ {
		name := names[rng.Intn(len(names))]
		mf := model[name]
		switch op := rng.Intn(10); {
		case op == 0: // WriteFile copies: scribbling on the source afterwards is harmless
			src := payload()
			if err := fs.WriteFile(name, src, 0o644, "t"); err != nil {
				t.Fatalf("seed %d step %d: WriteFile: %v", seed, step, err)
			}
			if mf == nil {
				mf = &modelFile{}
				model[name] = mf
			}
			mf.data = append([]byte(nil), src...)
			for i := range src {
				src[i] ^= 0xff
			}
		case op == 1: // Adopt: the slice, spare capacity included, is given up
			want := payload()
			given := make([]byte, len(want), len(want)+rng.Intn(300))
			copy(given, want)
			spare := given[len(given):cap(given)]
			for i := range spare {
				spare[i] = 0xa5 // must never show through a later extension
			}
			if err := fs.Adopt(name, given, 0o644, "t"); err != nil {
				t.Fatalf("seed %d step %d: Adopt: %v", seed, step, err)
			}
			if mf == nil {
				mf = &modelFile{}
				model[name] = mf
			}
			mf.data = want
		case (op == 2 || op == 9) && mf != nil: // Lend, twice as often as the rest: loans overlap
			got, err := fs.Lend(name)
			if err != nil {
				t.Fatalf("seed %d step %d: Lend: %v", seed, step, err)
			}
			if cap(got) != len(got) {
				t.Fatalf("seed %d step %d: Lend exposes %d bytes of spare capacity", seed, step, cap(got)-len(got))
			}
			mu.Lock()
			loans = append(loans, loan{path: name, lent: got, want: append([]byte(nil), got...)})
			mu.Unlock()
		case op == 7: // end a held loan, chosen at random, through the path it came from
			mu.Lock()
			if len(loans) == 0 {
				mu.Unlock()
				continue
			}
			i := rng.Intn(len(loans))
			l := loans[i]
			loans = append(loans[:i], loans[i+1:]...)
			mu.Unlock()
			fs.Return(l.path, l.lent)
		case op == 3 && mf != nil: // WriteAt, sometimes past EOF
			buf := payload()
			off := rng.Intn(len(mf.data) + 200)
			if _, err := fs.WriteAt(name, buf, int64(off)); err != nil {
				t.Fatalf("seed %d step %d: WriteAt: %v", seed, step, err)
			}
			if end := off + len(buf); end > len(mf.data) {
				mf.data = append(mf.data, make([]byte, end-len(mf.data))...)
			}
			copy(mf.data[off:], buf)
		case op == 4 && mf != nil:
			size := rng.Intn(len(mf.data) + 300)
			if err := fs.Truncate(name, int64(size)); err != nil {
				t.Fatalf("seed %d step %d: Truncate: %v", seed, step, err)
			}
			if size <= len(mf.data) {
				mf.data = mf.data[:size:size]
			} else {
				mf.data = append(mf.data, make([]byte, size-len(mf.data))...)
			}
		case op == 5 && mf != nil:
			if err := fs.Remove(name); err != nil {
				t.Fatalf("seed %d step %d: Remove: %v", seed, step, err)
			}
			delete(model, name)
		case op == 6 && mf != nil: // a second name for the same inode
			other := names[rng.Intn(len(names))]
			if model[other] != nil {
				continue
			}
			if err := fs.Link(name, other); err != nil {
				t.Fatalf("seed %d step %d: Link: %v", seed, step, err)
			}
			model[other] = mf
		case op == 8 && mf != nil: // the name moves, replacing whatever the target named
			other := names[rng.Intn(len(names))]
			if err := fs.Rename(name, other); err != nil {
				t.Fatalf("seed %d step %d: Rename: %v", seed, step, err)
			}
			if model[other] != mf {
				model[other] = mf
				delete(model, name)
			}
		default:
			continue
		}
		var used int64
		seen := map[*modelFile]bool{}
		for n, m := range model {
			got, err := fs.ReadFile(n)
			if err != nil {
				t.Fatalf("seed %d step %d: ReadFile(%s): %v", seed, step, n, err)
			}
			if !bytes.Equal(got, m.data) {
				t.Fatalf("seed %d step %d: %s holds %d bytes that differ from the model's %d", seed, step, n, len(got), len(m.data))
			}
			if !seen[m] {
				seen[m] = true
				used += int64(len(m.data))
			}
		}
		if got := fs.UsedBytes(); got != used {
			t.Fatalf("seed %d step %d: UsedBytes = %d, model says %d", seed, step, got, used)
		}
	}
	close(stop)
	<-done
	checkLoans()
}

// TestWriteAtUsesSpareCapacity pins the allocation behaviour the ownership
// rules exist to allow: rewriting a file that was truncated, or extending one
// into the capacity an adopted buffer brought, allocates nothing — unless a
// loan of the contents is outstanding, in which case exactly that write pays
// one copy. Once every loan has been returned, both kinds of write are in
// place again.
func TestWriteAtUsesSpareCapacity(t *testing.T) {
	fs := New(nil)
	const size = 1 << 20
	buf := bytes.Repeat([]byte{7}, size)
	if err := fs.Adopt("/f", make([]byte, 0, size), 0o644, "t"); err != nil {
		t.Fatal(err)
	}
	rewrite := func() {
		if err := fs.Truncate("/f", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt("/f", buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	patch := make([]byte, size/2)
	overwrite := func() {
		patch[0]++ // each overwrite changes what it covers
		if _, err := fs.WriteAt("/f", patch, size/4); err != nil {
			t.Fatal(err)
		}
	}
	inPlace := func(when string) {
		t.Helper()
		if got := testing.AllocsPerRun(10, rewrite); got != 0 {
			t.Fatalf("%s: truncate + rewrite within capacity allocates %.0f objects, want 0", when, got)
		}
		if got := testing.AllocsPerRun(10, overwrite); got != 0 {
			t.Fatalf("%s: a write within the file allocates %.0f objects, want 0", when, got)
		}
	}
	// head is the address of the file's contents, found by a loan that ends
	// at once.
	head := func() *byte {
		b := mustLend(t, fs, "/f")
		fs.Return("/f", b)
		return &b[0]
	}
	inPlace("never lent")

	lent := mustLend(t, fs, "/f")
	rewrite() // replaces the lent contents: one copy
	if &lent[0] == head() {
		t.Fatal("a write after Lend edited the lent bytes in place")
	}
	held := mustLend(t, fs, "/f")
	want := append([]byte(nil), held...)
	fs.Return("/f", lent) // stale: it must not end held's loan
	overwrite()
	if !bytes.Equal(held, want) {
		t.Fatal("a stale return ended the loan of the contents that replaced the ones it lent")
	}
	fs.Return("/f", held) // stale too: overwrite replaced them

	// Two loans overlap: returning one leaves the other held.
	first, second := mustLend(t, fs, "/f"), mustLend(t, fs, "/f")
	fs.Return("/f", first)
	want = append(want[:0], second...)
	overwrite()
	if !bytes.Equal(second, want) {
		t.Fatal("a write edited contents whose second loan was still held")
	}

	first, second = mustLend(t, fs, "/f"), mustLend(t, fs, "/f")
	fs.Return("/f", second)
	fs.Return("/f", first)
	at := head()
	inPlace("every loan returned")
	if head() != at {
		t.Fatal("a write moved contents with no loan outstanding")
	}
}

func mustLend(t *testing.T, fs *FS, path string) []byte {
	t.Helper()
	b, err := fs.Lend(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
