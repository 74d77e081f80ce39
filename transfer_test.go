package itcfs_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"itcfs"
	"itcfs/internal/sim"
	"itcfs/internal/venus"
)

// TestSimulatedTransferAllocatesTheFileOnce is the simulated carrier's
// hand-over gate, measured through rpc, secure and Venus on both sides of a
// simulated cell, in bytes allocated and not in time. A received packet is
// its receiver's and is opened where it lies, and the reply cache keeps a
// fetch's Bulk by reference, so a transfer of N bytes allocates the sealed
// packet and nothing else of that size:
//
//   - a cold open that fetches: the packet, which the cache file adopts;
//   - a cold ReadFile: the packet, which the caller gets, and the cache's
//     copy;
//   - a store: the packet, which the server's volume adopts.
//
// Opening into a fresh buffer, keeping a sealed copy of every reply, and
// copying a file under 256 KiB out of its packet cost one to three more.
func TestSimulatedTransferAllocatesTheFileOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, n := range []int{192 << 10, 1 << 20} {
		t.Run(fmt.Sprint(n>>10, "KiB"), func(t *testing.T) { simulatedTransfer(t, n) })
	}
}

func simulatedTransfer(t *testing.T, n int) {
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Revised, Clusters: 1, Costs: &itcfs.CostConfig{}})
	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		err = admin.NewUser(p, "satya", "pw", 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	writer, reader := cell.AddWorkstation(0, "writer"), cell.AddWorkstation(0, "reader")
	const dir = "/vice/usr/satya/"
	content := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, n) }
	cell.Run(func(p *sim.Proc) {
		if err = writer.Login(p, "satya", "pw"); err != nil {
			return
		}
		if err = reader.Login(p, "satya", "pw"); err != nil {
			return
		}
		for i := 0; i < 5; i++ {
			if err = writer.FS.WriteFile(p, fmt.Sprint(dir, "f", i), content(i)); err != nil {
				return
			}
		}
		// Warm the reader's connection, its directory cache and the pools.
		if _, err = reader.FS.ReadFile(p, dir+"f0"); err != nil {
			return
		}
		var h *venus.Handle
		if h, err = reader.FS.Open(p, dir+"f1", venus.FlagRead); err == nil {
			err = h.Close(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	var fetch, readFile, store uint64
	cell.Run(func(p *sim.Proc) {
		fetch = allocated(func() {
			var h *venus.Handle
			if h, err = reader.FS.Open(p, dir+"f2", venus.FlagRead); err == nil {
				err = h.Close(p)
			}
		})
		if err != nil {
			return
		}
		var got []byte
		readFile = allocated(func() { got, err = reader.FS.ReadFile(p, dir+"f3") })
		if err == nil && !bytes.Equal(got, content(3)) {
			err = fmt.Errorf("a cold ReadFile returned %d bytes that differ from the file", len(got))
		}
		if err != nil {
			return
		}
		// The store alone: the cache file holds the new bytes before it.
		var h *venus.Handle
		if h, err = writer.FS.Open(p, dir+"f4", venus.FlagWrite|venus.FlagTrunc); err != nil {
			return
		}
		if _, err = h.WriteAt(content(5), 0); err != nil {
			return
		}
		store = allocated(func() { err = h.Close(p) })
	})
	if err != nil {
		t.Fatal(err)
	}
	cell.Run(func(p *sim.Proc) {
		var got []byte
		if got, err = reader.FS.ReadFile(p, dir+"f4"); err == nil && !bytes.Equal(got, content(5)) {
			err = fmt.Errorf("the stored file reads back as %d bytes that differ", len(got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		bytes uint64
		limit float64
	}{
		{"a cold open that fetches", fetch, 1.1},
		{"a cold ReadFile", readFile, 2.1},
		{"a store", store, 1.1},
	} {
		per := float64(c.bytes) / float64(n)
		t.Logf("%s of %d B: %.2f x the file", c.what, n, per)
		if per > c.limit {
			t.Errorf("%s of %d B allocated %d B, %.2f x the file; want <= %.1f x", c.what, n, c.bytes, per, c.limit)
		}
	}
}

// allocated returns the bytes allocated while fn ran, by every goroutine:
// in a simulated cell, the server's side of a call as well as the client's.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
