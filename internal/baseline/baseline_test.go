package baseline

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
	"itcfs/internal/wire"
)

// directConn dispatches straight into the server for logic tests.
type directConn struct{ srv *Server }

func (c directConn) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	return c.srv.Dispatcher().Dispatch(rpc.Ctx{User: "u"}, req), nil
}

func newPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := NewServer(unixfs.New(nil))
	return srv, NewClient(directConn{srv})
}

func TestReadWriteRoundTrip(t *testing.T) {
	srv, c := newPair(t)
	data := bytes.Repeat([]byte("0123456789abcdef"), 1000) // 16000 bytes, ~4 pages
	if err := c.WriteFile(nil, "/f", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile(nil, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes, want %d", len(got), len(data))
	}
	opens, reads, writes := srv.OpCounts()
	if opens != 2 {
		t.Errorf("opens = %d", opens)
	}
	// 16000 bytes / 4096 page = 4 page ops each way.
	if reads != 4 || writes != 4 {
		t.Errorf("reads = %d writes = %d, want 4 each", reads, writes)
	}
}

func TestPartialReadTouchesOnePage(t *testing.T) {
	srv, c := newPair(t)
	big := make([]byte, 1<<20)
	if err := srv.FS().WriteFile("/big", big, 0o644, ""); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(nil, "/big", false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(nil)
	buf := make([]byte, 100)
	if _, err := f.ReadAt(nil, buf, 4096*17); err != nil {
		t.Fatal(err)
	}
	_, reads, _ := srv.OpCounts()
	if reads != 1 {
		t.Fatalf("reads = %d, want 1 — partial access is paging's strength", reads)
	}
}

func TestMissingFile(t *testing.T) {
	_, c := newPair(t)
	if _, err := c.Open(nil, "/ghost", false); !errors.Is(err, proto.ErrNoEnt) {
		t.Fatalf("err = %v", err)
	}
}

func TestStaleFDRejected(t *testing.T) {
	_, c := newPair(t)
	if err := c.WriteFile(nil, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(nil, "/f", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(nil, buf, 0); !errors.Is(err, proto.ErrStale) {
		t.Fatalf("err = %v", err)
	}
}

// TestFarPageWriteIsRefused: a page write at a negative offset, or one
// ending past the largest file a store can carry (wire.MaxField), is a bad
// request. The file is left as it was and the server goes on serving.
func TestFarPageWriteIsRefused(t *testing.T) {
	_, c := newPair(t)
	if err := c.WriteFile(nil, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(nil, "/f", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{1 << 40, wire.MaxField, -1, math.MaxInt64} {
		if _, err := f.WriteAt(nil, []byte("y"), off); !errors.Is(err, proto.ErrBadRequest) {
			t.Errorf("page write at %d: %v", off, err)
		}
	}
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
	if got, err := c.ReadFile(nil, "/f"); err != nil || string(got) != "x" {
		t.Fatalf("after the refused writes: %q, %v", got, err)
	}
}

// TestPageIOIsReadAndWriteOnly: of the page protocol's ops, only a read or a
// write moves a page and so reaches the disk; an open, a close or a stat
// touches metadata alone, as does any op outside the protocol.
func TestPageIOIsReadAndWriteOnly(t *testing.T) {
	for op, want := range map[rpc.Op]bool{
		opOpen: false, opRead: true, opWrite: true, opClose: false, opStat: false,
		rpc.Op(proto.OpFetch): false,
	} {
		if got := PageIO(op); got != want {
			t.Errorf("PageIO(%d) = %v, want %v", op, got, want)
		}
	}
}

// cpuBill holds the server's CPU for 4 ms per call served.
type cpuBill struct{ cpu *sim.Resource }

func (b cpuBill) Call(ctx rpc.Ctx, _ rpc.Request, _ rpc.Response) {
	b.cpu.Use(ctx.Proc, 4*time.Millisecond)
}
func (cpuBill) Handshake(*sim.Proc) {}

func TestEveryReadIsAnRPCOverTheNetwork(t *testing.T) {
	// Over the simulated network, a sequential scan of a 64 KB file costs
	// one round trip per page — the protocol overhead whole-file transfer
	// avoids (§3.2).
	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	sn := net.AddNode("server", cl)
	cn := net.AddNode("client", cl)
	srv := NewServer(unixfs.New(nil))
	key := secure.DeriveKey("u", "pw")
	keys := func(user string) (secure.Key, bool) { return key, user == "u" }
	cpu := sim.NewResource(k, "cpu")
	rpc.NewEndpoint(net, sn, rpc.EndpointConfig{
		Keys:   keys,
		Server: srv.Dispatcher(),
		Bill:   cpuBill{cpu},
	})
	clientEP := rpc.NewEndpoint(net, cn, rpc.EndpointConfig{})

	data := make([]byte, 64<<10)
	if err := srv.FS().WriteFile("/big", data, 0o644, ""); err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	var readErr error
	k.Spawn("client", func(p *sim.Proc) {
		conn, err := clientEP.Dial(p, sn.ID, "u", key)
		if err != nil {
			readErr = err
			return
		}
		c := NewClient(conn)
		start := p.Now()
		got, err := c.ReadFile(p, "/big")
		if err != nil || len(got) != 64<<10 {
			readErr = err
			return
		}
		elapsed = p.Now().Sub(start)
	})
	k.Run()
	if readErr != nil {
		t.Fatal(readErr)
	}
	_, reads, _ := srv.OpCounts()
	if reads != 16 {
		t.Fatalf("reads = %d, want 16 pages", reads)
	}
	if elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if cpu.BusyTime() == 0 {
		t.Fatal("server CPU uncharged")
	}
}
