package virtue

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"

	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
	"itcfs/internal/vice"
)

// missAllocs pins the objects one RPC-bound operation costs through
// virtue.FS, Venus, a real Peer pair and the server — vice.Boot on walstore
// over MemFS, journalling every mutation — both sides of the connection
// counted. The parent commit measured, with this same test, 21 for a cold
// 4 KiB ReadFile, 10 for a Stat that asks the server, 17 for a WriteFile that
// stores, 19 for a Mkdir and 11 for a Remove. Each is three fewer now: the
// two received frames, read into pooled buffers and given back, and the
// goroutine started to serve the call, now a parked worker. A reply Venus
// leaves unreleased shows up here as two more: the pooled buffer it kept and
// the frame that lent it, both made afresh for the next reply. WriteFile
// stored with 14 until Venus kept both its handles on the stack. Writing the
// same file again once its store has returned cost 13 objects and 9.5 KB
// while a store's loan of the cache file never ended: the first write after
// it copied the file into a new buffer. The loan ends when the store's Call
// returns, and the write lands in the file's own buffer. Each operation but
// Remove cost four objects more (Remove two) while both message bodies were
// marshalled by boxing the arguments into a wire.Message and copying the
// bytes out of a pooled encoder: a request's Body is now encoded into a
// pooled encoder lent to the call, a reply's into one lent to the carrier.
// That took the Stat's bytes from 248 to about 40.
//
// A cold read into a full cache evicts a file of its own size, whose name
// and buffer the arrival takes over: the bytes it allocates are the copy
// ReadFile returns and little else. Creating a cache file of its own and
// copying into a new buffer, as before, cost 17 objects and 133 KB. From the
// hand-over size on, what ReadFile returns is the frame the reply arrived in,
// and the cache's copy lands in the evicted file's buffer: one payload per
// read. Adopting the frame as the cache file and copying it out for the
// reader, as before, cost two.
//
// Every operation that sends or receives a record over 256 B cost two
// objects more — a cipher.NewCTR stream for the record on each side of the
// connection — until each direction of a session ran one keystream for all
// its records.
var missAllocs = map[string]float64{
	"cold ReadFile 4 KiB":                     12,
	"Stat (status RPC)":                       3,
	"WriteFile (store)":                       6,
	"WriteFile over a just-stored 4 KiB file": 6,
	"Mkdir":                            12,
	"Remove":                           6,
	"cold ReadFile 64 KiB, full cache": 8,
	"cold ReadFile 1 MiB, full cache":  8,
}

// missBytes pins bytes allocated per run where the payload dominates them,
// or where it must not appear: a rewrite in place allocates no 4 KiB buffer.
var missBytes = map[string]uint64{
	"WriteFile over a just-stored 4 KiB file": 6 << 10,
	"cold ReadFile 64 KiB, full cache":        64<<10 + 4<<10,
	"cold ReadFile 1 MiB, full cache":         1<<20 + 64<<10,
}

// missDial returns a dial function for venus.PeerConnector that gives each
// connection its own in-memory pipe to srv, served by ServeConn on the far
// end, and a function that closes every such pipe and waits until the
// server has dropped what it held for it.
func missDial(t *testing.T, srv *vice.Server) (func(string) (io.ReadWriteCloser, error), func()) {
	var pipes []net.Conn
	var served []chan struct{}
	dial := func(string) (io.ReadWriteCloser, error) {
		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeConn(sc, nil)
		}()
		pipes, served = append(pipes, cc), append(served, done)
		return cc, nil
	}
	hangUp := func() {
		for i, cc := range pipes {
			cc.Close()
			<-served[i]
		}
		pipes, served = nil, nil
	}
	t.Cleanup(hangUp)
	return dial, hangUp
}

// missWorkstation connects a workstation to srv whose cache holds maxBytes
// (0: Venus's default).
func missWorkstation(t *testing.T, srv *vice.Server, maxBytes int64) (*FS, func()) {
	callbacks := rpc.NewServer()
	dial, hangUp := missDial(t, srv)
	fs := NewWorkstation(venus.Config{
		Mode: vice.Revised, Machine: "ws", Local: unixfs.New(nil), HomeServer: "s0", MaxBytes: maxBytes,
		Connect: venus.PeerConnector(dial, "operator", secure.DeriveKey("operator", "pw"), callbacks),
	}, callbacks)
	fs.Venus().Login("operator")
	return fs, hangUp
}

// TestMissPathAllocs is the miss-path gate: every operation below is exactly
// one RPC, on a file or name this workstation has not touched before (the
// directory listing it walks is cached).
func TestMissPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ws, err := walstore.Open(store.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := vice.Boot(vice.Config{Name: "s0", Mode: vice.Revised, Store: ws}, "pw")
	if err != nil {
		t.Fatal(err)
	}
	const (
		runs  = 20 // AllocsPerRun makes one more call than it counts
		large = 64 << 10
		huge  = 1 << 20 // past the hand-over size
		full  = 4       // files a full-cache workstation's cache holds
	)
	name := func(kind string, i int) string { return fmt.Sprintf("/vice/m/%s%03d", kind, i) }
	contents := bytes.Repeat([]byte("itc-miss"), 4096/8)
	largeContents := bytes.Repeat([]byte("itc-miss"), large/8)
	hugeContents := bytes.Repeat([]byte("itc-miss"), huge/8)

	// Another workstation writes the files and hangs up, so the ones measured
	// find them cold and their stores break nobody's promise.
	setup, hangUp := missWorkstation(t, srv, 0)
	if err := setup.Mkdir(nil, "/vice/m", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= runs; i++ {
		for _, kind := range []string{"r", "s"} {
			if err := setup.WriteFile(nil, name(kind, i), contents); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i <= runs+full; i++ {
		if err := setup.WriteFile(nil, name("l", i), largeContents); err != nil {
			t.Fatal(err)
		}
		if err := setup.WriteFile(nil, name("h", i), hugeContents); err != nil {
			t.Fatal(err)
		}
	}
	hangUp()

	fs, _ := missWorkstation(t, srv, 0)
	if _, err := fs.ReadDir(nil, "/vice/m"); err != nil {
		t.Fatal(err)
	}
	measure := func(what string, op func(i int) error) {
		// A collection inside the batch would empty pools that later refill
		// at a cost of their own; start each batch just after one.
		runtime.GC()
		var before, after runtime.MemStats
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			if err := op(i); err != nil {
				t.Fatalf("%s %d: %v", what, i, err)
			}
			if i == 0 {
				// Bytes are counted from where AllocsPerRun counts objects:
				// after its first call, which refills the pools.
				runtime.ReadMemStats(&before)
			}
			i++
		})
		runtime.ReadMemStats(&after)
		if want := missAllocs[what]; got > want {
			t.Errorf("%s allocates %.1f objects, pinned at %.0f", what, got, want)
		}
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		if want, ok := missBytes[what]; ok && perRun > want {
			t.Errorf("%s allocates %d bytes, pinned at %d", what, perRun, want)
		}
		t.Logf("%s: %.1f objects, %d bytes", what, got, perRun)
	}
	before := fs.Venus().Stats()
	measure("cold ReadFile 4 KiB", func(i int) error {
		got, err := fs.ReadFile(nil, name("r", i))
		if err == nil && !bytes.Equal(got, contents) {
			err = fmt.Errorf("read back %d bytes that differ", len(got))
		}
		return err
	})
	measure("Stat (status RPC)", func(i int) error {
		_, err := fs.Stat(nil, name("s", i))
		return err
	})
	measure("WriteFile (store)", func(i int) error { return fs.WriteFile(nil, name("r", i), contents) })
	measure("WriteFile over a just-stored 4 KiB file", func(i int) error { return fs.WriteFile(nil, name("r", i), contents) })
	measure("Mkdir", func(i int) error { return fs.Mkdir(nil, name("d", i), 0o755) })
	measure("Remove", func(i int) error { return fs.Remove(nil, name("r", i)) })

	after := fs.Venus().Stats()
	if n := after.Fetches - before.Fetches; n != runs+1 {
		t.Errorf("%d fetches, want %d: a read was not cold", n, runs+1)
	}
	if n := after.StatRPCs - before.StatRPCs; n != runs+1 {
		t.Errorf("%d status RPCs, want %d", n, runs+1)
	}
	if n := after.Stores - before.Stores; n != 2*(runs+1) {
		t.Errorf("%d stores, want %d", n, 2*(runs+1))
	}

	// A workstation whose cache holds full files of one size and the two
	// listings that lead to them: once it is warm, every read evicts the
	// least recently read file.
	coldFull := func(what, kind string, contents []byte) {
		ws, _ := missWorkstation(t, srv, full*int64(len(contents))+8<<10)
		for i := 0; i < full; i++ {
			if _, err := ws.ReadFile(nil, name(kind, i)); err != nil {
				t.Fatal(err)
			}
		}
		before := ws.Venus().Stats()
		measure(what, func(i int) error {
			got, err := ws.ReadFile(nil, name(kind, full+i))
			if err == nil && !bytes.Equal(got, contents) {
				err = fmt.Errorf("read back %d bytes that differ", len(got))
			}
			return err
		})
		after := ws.Venus().Stats()
		if n := after.Fetches - before.Fetches; n != runs+1 {
			t.Errorf("%s: %d fetches into the full cache, want %d", what, n, runs+1)
		}
		if n := after.Evictions - before.Evictions; n != runs+1 {
			t.Errorf("%s: %d evictions, want one per read, %d", what, n, runs+1)
		}
	}
	coldFull("cold ReadFile 64 KiB, full cache", "l", largeContents)
	coldFull("cold ReadFile 1 MiB, full cache", "h", hugeContents)
}
