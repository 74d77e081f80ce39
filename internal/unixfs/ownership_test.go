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

// loan is a slice Lend handed out and what it held at that moment.
type loan struct {
	lent []byte
	want []byte
}

// TestOwnershipModel drives seeded random WriteFile/Adopt/Lend/WriteAt/
// Truncate/Remove/Link sequences against the reference and asserts the two
// ownership rules: a file's contents always equal the model's, and a lent
// slice is bit-identical for as long as the test holds it — which is until
// the end, so every later write, truncation, adoption and removal has had its
// chance at it. A borrower goroutine re-reads the loans while the operations
// run, so under -race an in-place write to lent bytes is reported even where
// it happens to store the value already there.
func TestOwnershipModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runOwnershipModel(t, seed, 3000)
	}
}

func runOwnershipModel(t *testing.T, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fs := New(nil)
	names := []string{"/a", "/b", "/c", "/d", "/e"}
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
		switch op := rng.Intn(8); {
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
		case op == 2 && mf != nil:
			got, err := fs.Lend(name)
			if err != nil {
				t.Fatalf("seed %d step %d: Lend: %v", seed, step, err)
			}
			if cap(got) != len(got) {
				t.Fatalf("seed %d step %d: Lend exposes %d bytes of spare capacity", seed, step, cap(got)-len(got))
			}
			mu.Lock()
			loans = append(loans, loan{lent: got, want: append([]byte(nil), got...)})
			mu.Unlock()
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
// into the capacity an adopted buffer brought, allocates nothing — unless the
// contents were lent, in which case exactly that write pays one copy.
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
	if got := testing.AllocsPerRun(10, rewrite); got != 0 {
		t.Fatalf("truncate + rewrite within capacity allocates %.0f objects, want 0", got)
	}
	lent, err := fs.Lend("/f")
	if err != nil {
		t.Fatal(err)
	}
	rewrite() // replaces the lent contents: one copy
	if &lent[0] == &mustLend(t, fs, "/f")[0] {
		t.Fatal("a write after Lend edited the lent bytes in place")
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
