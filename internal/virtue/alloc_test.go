package virtue

import (
	"bytes"
	"runtime"
	"testing"

	"itcfs/internal/vice"
)

// raceEnabled is set by race_test.go: the race detector's instrumentation
// allocates, so exact object counts do not hold under it.
var raceEnabled bool

// TestWarmHitAllocs pins what a cache hit costs through virtue.FS on a warm
// revised-mode Venus: a cached open costs what it returns. ReadFile allocates
// the bytes it hands back and nothing else, Stat nothing, and an Open only
// the two handles the caller keeps (virtue's File, Venus's Handle). Before
// the walk went in place and the hit into one hold, ReadFile was 4 objects
// (the component slice, both handles, a size+1 buffer in the 4 864-byte
// class) and Stat 1.
func TestWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	fs, _ := rig(t, vice.Revised)
	for _, dir := range []string{"/vice/usr", "/vice/usr/warm", "/vice/usr/warm/w", "/vice/usr/warm/w/d00"} {
		if err := fs.Mkdir(nil, dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	const path = "/vice/usr/warm/w/d00/f000"
	want := bytes.Repeat([]byte("itc-venus-hit..."), 4096/16)
	if err := fs.WriteFile(nil, path, want); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.ReadFile(nil, path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("warm-up read: %d bytes, %v", len(got), err)
	}
	before := fs.Venus().Stats()

	const runs = 200
	var m0, m1 runtime.MemStats
	// Bytes are counted over the calls AllocsPerRun counts objects over: from
	// the end of its warm-up call to the end of the last, so nothing allocated
	// on its way in or out lands in the window. A collection inside the window
	// allocates on the runtime's account; start just after one, so the runs'
	// 800 KB stay well under the next.
	runtime.GC()
	i := 0
	reads := testing.AllocsPerRun(runs, func() {
		if got, err := fs.ReadFile(nil, path); err != nil || len(got) != len(want) {
			t.Fatalf("ReadFile: %d bytes, %v", len(got), err)
		}
		switch i {
		case 0:
			runtime.ReadMemStats(&m0)
		case runs:
			runtime.ReadMemStats(&m1)
		}
		i++
	})
	if reads != 1 {
		t.Errorf("warm ReadFile allocates %.0f objects, want 1 (the bytes returned)", reads)
	}
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per != uint64(len(want)) {
		t.Errorf("warm ReadFile of a %d-byte file allocates %d bytes", len(want), per)
	}
	if stats := testing.AllocsPerRun(runs, func() {
		if st, err := fs.Stat(nil, path); err != nil || st.Size != int64(len(want)) {
			t.Fatalf("Stat: %+v, %v", st, err)
		}
	}); stats != 0 {
		t.Errorf("warm Stat allocates %.0f objects, want 0", stats)
	}
	if opens := testing.AllocsPerRun(runs, func() {
		f, err := fs.Open(nil, path, FlagRead)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(nil); err != nil {
			t.Fatal(err)
		}
	}); opens != 2 {
		t.Errorf("warm Open+Close allocates %.0f objects, want 2 (the two handles)", opens)
	}

	// Every one of those was an open served from the cache with no RPC.
	after := fs.Venus().Stats()
	if opens := after.Opens - before.Opens; opens != 2*(runs+1) || after.Hits-before.Hits != opens {
		t.Errorf("%d opens, %d hits, want %d of each", opens, after.Hits-before.Hits, 2*(runs+1))
	}
	if after.Fetches != before.Fetches || after.StatRPCs != before.StatRPCs || after.OtherRPCs != before.OtherRPCs {
		t.Errorf("warm hits made RPCs: %+v -> %+v", before, after)
	}
}
