package walstore

import (
	"runtime"
	"testing"

	"itcfs/internal/store"
	"itcfs/internal/volume"
)

// TestCommitBuildsRecordInOneBuffer gates the record path: a commit carrying
// file contents allocates the record it appends — the body encoded after a
// reserved prefix, stamped and checksummed in place — and nothing else of
// that size. Encoding, stamping and framing through three buffers, as
// before, fails this three times over.
func TestCommitBuildsRecordInOneBuffer(t *testing.T) {
	s, _ := open(t, store.DirFS(t.TempDir()))
	defer s.Close()
	const size = 1 << 20
	c := store.Commit{
		Vol:  7,
		Meta: []volume.VnodeMeta{{Vnode: 2, Meta: make([]byte, 60)}},
		Data: []volume.VnodeData{{Vnode: 2, Data: make([]byte, size)}},
	}
	commit := func() {
		if err := s.Commit(c); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		commit()
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / runs; per > 1.1*size {
		t.Fatalf("a commit of %d bytes allocated %.0f, want one record buffer (<= 1.1 x)", size, per)
	}
	// The buffer, plus what the runtime itself allocates meanwhile; growing
	// an unsized encoder to this record took some twenty.
	if per := float64(after.Mallocs-before.Mallocs) / runs; per > 4 {
		t.Fatalf("a commit made %.1f allocations, want the record buffer alone", per)
	}
}
