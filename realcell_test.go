package itcfs

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
	"itcfs/internal/vice"
	"itcfs/internal/virtue"
)

// A real cell, from the pieces the daemon and the shell are made of: a
// server from vice.Boot serving a loopback listener with Serve, workstations
// from virtue.NewWorkstation reaching it through venus.PeerConnector, the
// operator's console an Admin over one connection from the same connector.
// These tests hold what used to live only in cmd/itcfsd's and cmd/itcfs's
// main functions: what the end of a connection releases, on both ends, and
// that a workstation answers both kinds of callback break.

type realCell struct {
	srv  *vice.Server
	addr string
	// tracer, which may be nil, is the one the server and every station
	// record spans to.
	tracer *trace.Tracer
	// ended receives the user of each connection once ServeConn is done
	// with it, cleanup included.
	ended chan string
}

// realStation is one workstation of a real cell.
type realStation struct {
	*virtue.FS
	// connect reaches the server as the workstation does, its callback
	// service included; hangUp closes every connection it has dialed.
	connect venus.Connector
	hangUp  func()
}

// bulkBack is an op outside Vice's range that the test server answers by
// placing the request's body on the caller's own back channel as an
// OpBulkBreak: a server-initiated batched break on demand.
const bulkBack rpc.Op = 0x7f01

func newRealCell(t *testing.T, mode Mode, users ...string) *realCell {
	t.Helper()
	return bootRealCell(t, vice.Config{Name: "server0", Mode: mode}, nil, users...)
}

// bootRealCell is newRealCell for a caller with a Config of its own (a store)
// or a tracer, which may be nil.
func bootRealCell(t *testing.T, cfg vice.Config, tracer *trace.Tracer, users ...string) *realCell {
	t.Helper()
	srv, _, err := vice.Boot(cfg, "secret")
	if err != nil {
		t.Fatal(err)
	}
	srv.Dispatcher().Handle(bulkBack, func(ctx rpc.Ctx, req rpc.Request) rpc.Response {
		resp, err := ctx.Back.CallBack(nil, rpc.Request{Op: rpc.Op(proto.OpBulkBreak), Body: req.Body})
		if err != nil {
			return rpc.Response{Code: proto.CodeInternal, Body: []byte(err.Error())}
		}
		return resp
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &realCell{srv: srv, addr: l.Addr().String(), tracer: tracer, ended: make(chan string)}
	stop := make(chan struct{})
	go srv.Serve(l, tracer, func(_ net.Addr, user string, _ error) {
		select {
		case c.ended <- user:
		case <-stop:
		}
	})
	t.Cleanup(func() { l.Close(); close(stop) })

	dial, _ := c.dialer(t)
	conn, err := venus.PeerConnector(dial, "operator", secure.DeriveKey("operator", "secret"), nil)(nil, "server0")
	if err != nil {
		t.Fatal(err)
	}
	console := NewAdmin(conn, "server0")
	for _, user := range users {
		if err := console.NewUser(nil, user, "pw", 0); err != nil {
			t.Fatalf("new user %s: %v", user, err)
		}
	}
	return c
}

// dialer returns a dial function for venus.PeerConnector that opens a
// loopback connection to the cell, and a function that closes every
// connection it has opened, which the test's cleanup also calls.
func (c *realCell) dialer(t *testing.T) (dial func(string) (io.ReadWriteCloser, error), hangUp func()) {
	var mu sync.Mutex
	var conns []net.Conn
	dial = func(string) (io.ReadWriteCloser, error) {
		nc, err := net.Dial("tcp", c.addr)
		if err == nil {
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
		}
		return nc, err
	}
	hangUp = func() {
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range conns {
			nc.Close()
		}
		conns = nil
	}
	t.Cleanup(hangUp)
	return dial, hangUp
}

func (c *realCell) station(t *testing.T, mode Mode, user string) realStation {
	t.Helper()
	callbacks := rpc.NewServer()
	dial, hangUp := c.dialer(t)
	connect := venus.PeerConnector(dial, user, secure.DeriveKey(user, "pw"), callbacks)
	fs := virtue.NewWorkstation(venus.Config{
		Mode:       mode,
		Machine:    "ws-" + user,
		Local:      unixfs.New(nil),
		HomeServer: "server0",
		Connect:    connect,
		Tracer:     c.tracer,
	}, callbacks)
	fs.Venus().Login(user)
	return realStation{FS: fs, connect: connect, hangUp: hangUp}
}

func (ws realStation) write(t *testing.T, path, contents string) {
	t.Helper()
	if err := ws.WriteFile(nil, path, []byte(contents)); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

func (ws realStation) read(t *testing.T, path string) string {
	t.Helper()
	data, err := ws.ReadFile(nil, path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(data)
}

// patience bounds a wait on a real socket closing; a test that reaches it
// fails.
func patience() <-chan time.Time {
	return time.After(10 * time.Second) //itcvet:allow wallclock -- bounds a wait on a real socket closing
}

// awaitEnd waits until the server has finished with a connection of user's.
func (c *realCell) awaitEnd(t *testing.T, user string) {
	t.Helper()
	select {
	case got := <-c.ended:
		if got != user {
			t.Fatalf("connection of %q ended, want %s's", got, user)
		}
	case <-patience():
		t.Fatal("the server never finished with the closed connection")
	}
}

// An update on one connection reaches a cached copy held over another: by a
// callback break in the revised design, by check-on-open in the prototype.
func TestRealCellSharingAcrossConnections(t *testing.T) {
	for _, mode := range []Mode{Prototype, Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newRealCell(t, mode, "satya", "howard")
			writer, reader := c.station(t, mode, "satya"), c.station(t, mode, "howard")
			writer.write(t, "/vice/usr/satya/shared", "v1")
			if got := reader.read(t, "/vice/usr/satya/shared"); got != "v1" {
				t.Fatalf("first read %q", got)
			}
			writer.write(t, "/vice/usr/satya/shared", "v2")
			if got := reader.read(t, "/vice/usr/satya/shared"); got != "v2" {
				t.Fatalf("after the update on the other connection: %q", got)
			}
			breaks := reader.Venus().Stats().CallbackBreaks
			if (mode == Revised) != (breaks > 0) {
				t.Fatalf("%d callback breaks delivered in %s mode", breaks, mode)
			}
		})
	}
}

// A workstation answers the batched break as well as the single one. Vice
// sends real transports one break per call today, so the server end is made
// to place the batch, on a second connection with the workstation's callback
// service; a workstation that registered only OpCallbackBreak, as cmd/itcfs
// once did, refuses it and keeps serving the stale copies.
func TestRealCellBulkBreak(t *testing.T) {
	c := newRealCell(t, Revised, "satya")
	ws := c.station(t, Revised, "satya")
	var batch proto.BulkBreakArgs
	for _, path := range []string{"/usr/satya/a", "/usr/satya/b"} {
		ws.write(t, "/vice"+path, "cached")
		ws.read(t, "/vice"+path)
		fid, err := ws.Venus().Resolve(nil, path)
		if err != nil {
			t.Fatal(err)
		}
		batch.Items = append(batch.Items, proto.CallbackBreakArgs{FID: fid, Path: path})
	}
	before := ws.Venus().Stats()
	conn, err := ws.connect(nil, "server0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Call(nil, rpc.Request{Op: bulkBack, Body: proto.Marshal(batch)})
	if err != nil || !resp.OK() {
		t.Fatalf("the workstation refused a bulk break: code %d %q, %v", resp.Code, resp.Body, err)
	}
	ws.read(t, "/vice/usr/satya/a")
	ws.read(t, "/vice/usr/satya/b")
	after := ws.Venus().Stats()
	if got := after.CallbackBreaks - before.CallbackBreaks; got != 2 {
		t.Errorf("%d breaks counted, want 2", got)
	}
	if got := after.Fetches - before.Fetches; got != 2 {
		t.Errorf("%d fetches after the break, want 2: the copies were not invalidated", got)
	}
}

// When a client's connection ends the server releases its advisory locks
// and drops its callback promises; nothing else ever would.
func TestRealCellDisconnectReleases(t *testing.T) {
	for _, mode := range []Mode{Prototype, Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newRealCell(t, mode, "satya")
			ws := c.station(t, mode, "satya")
			ws.write(t, "/vice/usr/satya/held", "mine")
			ws.read(t, "/vice/usr/satya/held")
			if err := ws.Venus().Lock(nil, "/usr/satya/held", true); err != nil {
				t.Fatal(err)
			}
			fid, err := ws.Venus().Resolve(nil, "/usr/satya/held")
			if err != nil {
				t.Fatal(err)
			}
			// Another user's exclusive lock is refused while satya holds
			// one, and granted once nobody holds any.
			if err := c.srv.Locks().Lock(fid, "probe", true); !errors.Is(err, proto.ErrLocked) {
				t.Fatalf("before the disconnect, another user's lock: %v; want refused", err)
			}
			if n := c.srv.Callbacks().Outstanding(); (mode == Revised) != (n > 0) {
				t.Fatalf("%d promises outstanding in %s mode before the disconnect", n, mode)
			}
			ws.hangUp()
			c.awaitEnd(t, "satya")
			if err := c.srv.Locks().Lock(fid, "probe", true); err != nil {
				t.Errorf("after the disconnect, another user's lock: %v", err)
			}
			if n := c.srv.Callbacks().Outstanding(); n != 0 {
				t.Errorf("after the disconnect: %d promises outstanding", n)
			}
		})
	}
}

// A station's connections belong to the user logged in there, and another
// login closes them: the old Peer ends and the server's ServeConn for it
// returns at once, where before both lived until the process exited. The
// promises made on a closed connection are not trusted again, so after a
// same-user re-login the station reads a store made meanwhile elsewhere.
func TestRealCellLoginClosesTheLastUsersConnections(t *testing.T) {
	c := newRealCell(t, Revised, "satya")
	other := c.station(t, Revised, "satya")
	callbacks := rpc.NewServer()
	dial, _ := c.dialer(t)
	connect := venus.PeerConnector(dial, "satya", secure.DeriveKey("satya", "pw"), callbacks)
	var peer *rpc.Peer
	ws := realStation{FS: virtue.NewWorkstation(venus.Config{
		Mode:       Revised,
		Machine:    "ws-public",
		Local:      unixfs.New(nil),
		HomeServer: "server0",
		Connect: func(p *sim.Proc, server string) (venus.Conn, error) {
			conn, err := connect(p, server)
			if err == nil {
				peer = conn.(*rpc.Peer)
			}
			return conn, err
		},
	}, callbacks)}
	login := func(user string) {
		t.Helper()
		last := peer
		ws.Venus().Login(user)
		c.awaitEnd(t, "satya")
		select {
		case <-last.Done():
		case <-patience():
			t.Fatal("the last user's Peer is still open")
		}
	}
	ws.Venus().Login("satya")
	ws.write(t, "/vice/usr/satya/f", "v1")
	ws.read(t, "/vice/usr/satya/f")
	login("satya")
	other.write(t, "/vice/usr/satya/f", "v2")
	if got := ws.read(t, "/vice/usr/satya/f"); got != "v2" {
		t.Errorf("after a re-login the station reads %q, the server has v2", got)
	}
	login("howard")
}

// The other end of a connection's end: the workstation whose connection
// ended no longer trusts the promises the server dropped with it (§3.3). It
// redials and revalidates, and so reads a store another station made in
// the meantime. Before Venus watched its connections it never noticed the
// end: the revised mode served the stale copy from its cache without a call,
// and the prototype, whose check-on-open failed on the closed connection,
// served it as a degraded read.
func TestRealCellStationOutlivesItsConnection(t *testing.T) {
	for _, mode := range []Mode{Prototype, Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newRealCell(t, mode, "satya", "howard")
			a, b := c.station(t, mode, "howard"), c.station(t, mode, "satya")
			b.write(t, "/vice/usr/satya/f", "v1")
			if got := a.read(t, "/vice/usr/satya/f"); got != "v1" {
				t.Fatalf("first read %q", got)
			}
			a.hangUp()
			c.awaitEnd(t, "howard")
			// The station learns of the end on a goroutine of its own.
			for timeout := patience(); a.Venus().Stats().Reconnects == 0; {
				select {
				case <-timeout:
					t.Fatal("the station never dropped the connection that ended")
				default:
					runtime.Gosched()
				}
			}
			b.write(t, "/vice/usr/satya/f", "v2")
			if got := a.read(t, "/vice/usr/satya/f"); got != "v2" {
				t.Errorf("after its connection ended the station reads %q, the server has v2", got)
			}
			if n := a.Venus().Stats().Reconnects; n != 1 {
				t.Errorf("%d reconnects counted for one ended connection", n)
			}
		})
	}
}

// tracedRealCell is a real cell whose server and stations record to one
// wall-clock tracer, returned with it.
func tracedRealCell(t *testing.T, mode Mode, users ...string) (*realCell, *trace.Tracer) {
	t.Helper()
	tr := trace.New(func() sim.Time { return rpc.Clock(nil) })
	return bootRealCell(t, vice.Config{Name: "server0", Mode: mode}, tr, users...), tr
}

// servedOp returns the one span named name whose op attribute is op.
func servedOp(t *testing.T, spans []*trace.Span, name string, op rpc.Op) *trace.Span {
	t.Helper()
	var found []*trace.Span
	for _, s := range spans {
		if s.Name() == name && s.IntAttr(trace.AttrOp) == int64(op) {
			found = append(found, s)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d %s spans of op %d, want 1", len(found), name, op)
	}
	return found[0]
}

// childOf fails unless child is parent's child in parent's trace.
func childOf(t *testing.T, child, parent *trace.Span) {
	t.Helper()
	if child.Context().Trace != parent.Context().Trace || child.Parent() != parent.Context().Span {
		t.Errorf("%s on %s is in trace %d under span %d; want trace %d under %s on %s (span %d)",
			child.Name(), child.Node(), child.Context().Trace, child.Parent(),
			parent.Context().Trace, parent.Name(), parent.Node(), parent.Context().Span)
	}
}

// A real caller that passes a process without a kernel gets one trace for
// one operation, across the wire: a cold ReadFile is one venus.open root, and
// each fetch it makes is a venus.fetch within it, under that the fetch's
// rpc.call on the workstation and under that the server's rpc.serve. Each
// span is recorded on its own machine. Before a real caller could carry a
// span, every rpc.call was a root and a workstation's peers recorded nothing.
func TestRealCellTraceLinksTheClientsCall(t *testing.T) {
	for _, mode := range []Mode{Prototype, Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c, tr := tracedRealCell(t, mode, "satya")
			c.station(t, mode, "satya").write(t, "/vice/usr/satya/f", "v1")
			reader := c.station(t, mode, "satya")
			tr.Reset()
			var proc sim.Proc
			if data, err := reader.ReadFile(&proc, "/vice/usr/satya/f"); err != nil || string(data) != "v1" {
				t.Fatalf("cold read: %q, %v", data, err)
			}
			spans := tr.Spans()
			byID := make(map[uint64]*trace.Span, len(spans))
			var roots []*trace.Span
			for _, s := range spans {
				byID[s.Context().Span] = s
				if s.Parent() == 0 {
					roots = append(roots, s)
				}
			}
			if len(roots) != 1 || roots[0].Name() != trace.SpanVenusOpen {
				t.Fatalf("%d roots among %d spans, want one venus.open", len(roots), len(spans))
			}
			open := roots[0]
			fetches := 0
			for _, s := range spans {
				if s.Context().Trace != open.Context().Trace {
					t.Errorf("%s on %s is outside the read's trace", s.Name(), s.Node())
				}
				parent := byID[s.Parent()]
				switch {
				case s == open:
				case parent == nil:
					t.Errorf("%s on %s has parent %d, not a span of the read", s.Name(), s.Node(), s.Parent())
				case s.Name() == trace.SpanRPCServe:
					if parent.Name() != trace.SpanRPCCall || s.Node() != "server0" || parent.Node() != "ws-satya" {
						t.Errorf("rpc.serve on %s is under %s on %s; want under rpc.call on ws-satya, served on server0",
							s.Node(), parent.Name(), parent.Node())
					}
				case s.Name() == trace.SpanRPCCall && s.IntAttr(trace.AttrOp) == int64(proto.OpFetch):
					fetches++
					if parent.Name() != trace.SpanVenusFetch {
						t.Errorf("a fetch's rpc.call is under %s, want venus.fetch", parent.Name())
					}
					for a := parent; a != open; a = byID[a.Parent()] {
						if a == nil || a.Node() != "ws-satya" {
							t.Fatalf("a fetch's venus.fetch does not lie within the read's venus.open on ws-satya")
						}
					}
				}
			}
			if fetches == 0 {
				t.Fatal("the cold read traced no fetch")
			}
		})
	}
}

// A handler's calls nest under the call it serves: the callback break a
// store over a Peer makes is an rpc.call child of the store's rpc.serve,
// recorded on the server, and the breaking station's rpc.serve is its child
// in turn. A worker serves call after call on one process, so a span left
// ambient on it would show here as a wrong parent. Before real workers had a
// process, the break's rpc.call was a root.
func TestRealCellTraceLinksTheBreakToTheStore(t *testing.T) {
	c, tr := tracedRealCell(t, Revised, "satya", "howard")
	writer, reader := c.station(t, Revised, "satya"), c.station(t, Revised, "howard")
	writer.write(t, "/vice/usr/satya/f", "v1")
	reader.read(t, "/vice/usr/satya/f")
	tr.Reset()
	writer.write(t, "/vice/usr/satya/f", "v2")
	spans := tr.Spans()
	store := servedOp(t, spans, trace.SpanRPCServe, rpc.Op(proto.OpStore))
	brk := servedOp(t, spans, trace.SpanRPCCall, rpc.Op(proto.OpCallbackBreak))
	broken := servedOp(t, spans, trace.SpanRPCServe, rpc.Op(proto.OpCallbackBreak))
	childOf(t, brk, store)
	childOf(t, broken, brk)
	if store.Node() != "server0" || brk.Node() != "server0" || broken.Node() != "ws-howard" {
		t.Errorf("store served on %q, break called on %q and served on %q; want server0, server0, ws-howard",
			store.Node(), brk.Node(), broken.Node())
	}
	if got := reader.read(t, "/vice/usr/satya/f"); got != "v2" {
		t.Errorf("after the break the reader reads %q", got)
	}
}
