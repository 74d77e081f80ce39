package venus

import (
	"bytes"
	"errors"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/vice"
)

// validConn runs the pending hook, once, on the next TestValid call, and
// fails the call with the hook's error in place of sending it.
type validConn struct {
	inner Conn
	hook  *func() error
}

func (c *validConn) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	if hook := *c.hook; hook != nil && req.Op == rpc.Op(proto.OpTestValid) {
		*c.hook = nil
		if err := hook(); err != nil {
			return rpc.Response{}, err
		}
	}
	return c.inner.Call(p, req)
}

// TestHandedOffEntryIsNotServed evicts a cached copy by hand-off while an
// open holds its entry unpinned across check-on-open's TestValid: the arrival
// that evicts it takes over its cache file. Neither way out of that RPC may
// serve the entry — not degraded when the custodian is unreachable, not as a
// hit when the custodian confirms the version — since its file now holds
// another file's bytes. Confirmed, the open fetches the copy again.
func TestHandedOffEntryIsNotServed(t *testing.T) {
	const size = 1000
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	writer := c.newVenus("s0", "satya", nil)
	writeFile(t, writer, "/u/f0", string(pattern(size, 0)))
	writeFile(t, writer, "/u/f1", string(pattern(size, 1)))

	var hook func() error
	v := c.newVenus("s0", "satya", func(cfg *Config) { cfg.MaxFiles = 1 })
	dial := v.cfg.Connect
	v.cfg.Connect = func(p *sim.Proc, server string) (Conn, error) {
		conn, err := dial(p, server)
		if err != nil {
			return nil, err
		}
		return &validConn{inner: conn, hook: &hook}, nil
	}
	// evict reads f1 into the one-file cache, which hands f0's file to it.
	evict := func(fail error) func() error {
		return func() error {
			v.mu.Lock()
			victim := v.byPath["/u/f0"]
			file := victim.cacheFile
			v.mu.Unlock()
			if got := readAll(t, v, "/u/f1", size); !bytes.Equal(got, pattern(size, 1)) {
				t.Error("f1 read back other bytes")
			}
			v.mu.Lock()
			defer v.mu.Unlock()
			if e := v.byPath["/u/f1"]; e == nil || e.cacheFile != file {
				t.Errorf("f1 did not take over f0's cache file %s", file)
			}
			if victim.lruEl != nil || victim.cacheFile != "" {
				t.Errorf("f0's evicted entry still names a cache file (%q) or sits on the LRU list", victim.cacheFile)
			}
			return fail
		}
	}

	readAll(t, v, "/u/f0", size)
	hook = evict(rpc.ErrUnreachable)
	if h, err := v.Open(nil, "/u/f0", FlagRead); !errors.Is(err, rpc.ErrUnreachable) {
		if err == nil {
			h.Close(nil)
		}
		t.Fatalf("open of a handed-off entry with its custodian down: %v, want unreachable", err)
	}
	if n := v.Stats().DegradedReads; n != 0 {
		t.Fatalf("%d degraded reads served a handed-off entry", n)
	}

	readAll(t, v, "/u/f0", size)
	hook = evict(nil)
	before := v.Stats()
	if got := readAll(t, v, "/u/f0", size); !bytes.Equal(got, pattern(size, 0)) {
		t.Fatal("a handed-off entry was served: f0 read back another file's bytes")
	}
	if hook != nil {
		t.Fatal("the open never revalidated")
	}
	// f1 fetched in the hook, then f0 again.
	if n := v.Stats().Fetches - before.Fetches; n != 2 {
		t.Fatalf("%d fetches, want 2: f0 was not fetched again", n)
	}
}
