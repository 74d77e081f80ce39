package walstore

import (
	"runtime"
	"testing"

	"itcfs/internal/store"
	"itcfs/internal/volume"
)

// TestCommitBuildsRecordInOneBuffer gates the record path: a warm commit
// carrying file contents builds its record — the body encoded after a
// reserved prefix, stamped and checksummed in place — in the buffer the
// store's last record grew, and allocates nothing of the file's size. A
// record in a buffer of its own, as before, costs the file once more each
// commit; encoding, stamping and framing through three buffers, three times.
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
	if per := float64(after.TotalAlloc-before.TotalAlloc) / runs; per > size/100 {
		t.Fatalf("a warm commit of %d bytes allocated %.0f, want under 1 %% of it (the store's record buffer reused)", size, per)
	}
	// What the runtime itself allocates meanwhile.
	if per := float64(after.Mallocs-before.Mallocs) / runs; per > 3 {
		t.Fatalf("a warm commit made %.1f allocations, want none of its own", per)
	}
}

// TestCheckpointAndCloseDropTheRecordBuffer bounds what the store keeps: the
// record buffer holds the largest record since the last checkpoint, and
// Checkpoint, which has just allocated the whole snapshot, drops it, as
// Close does. A commit after the checkpoint grows it again, to its own size.
func TestCheckpointAndCloseDropTheRecordBuffer(t *testing.T) {
	s, _ := open(t, store.NewMemFS())
	defer s.Close()
	held := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return cap(s.rec.Buf())
	}
	commit := func(size int) {
		t.Helper()
		err := s.Commit(store.Commit{Vol: 7, Data: []volume.VnodeData{{Vnode: 2, Data: make([]byte, size)}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	commit(1 << 20)
	commit(100)
	if got := held(); got < 1<<20 {
		t.Fatalf("after a 1 MiB and a 100-byte commit the store holds %d bytes, want the 1 MiB record's buffer", got)
	}
	if err := s.Checkpoint(store.Checkpoint{}); err != nil {
		t.Fatal(err)
	}
	if got := held(); got != 0 {
		t.Fatalf("after Checkpoint the store holds a %d-byte record buffer, want none", got)
	}
	commit(100)
	if got := held(); got == 0 || got >= 4<<10 {
		t.Fatalf("a 100-byte commit after the checkpoint left a %d-byte buffer, want one of its size", got)
	}
	commit(1 << 20)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := held(); got != 0 {
		t.Fatalf("after Close the store holds a %d-byte record buffer, want none", got)
	}
}
