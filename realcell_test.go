package itcfs

import (
	"net"
	"testing"
	"time"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
	"itcfs/internal/vice"
	"itcfs/internal/virtue"
)

// A real cell, from the pieces the daemon and the shell are made of: a
// server from vice.Boot, each connection served by ServeConn, workstations
// from virtue.NewWorkstation, the operator's console an Admin over an
// rpc.Peer. These tests hold what used to live only in cmd/itcfsd's and
// cmd/itcfs's main functions: what the end of a connection releases, and
// that a workstation answers both kinds of callback break.

type realCell struct {
	srv  *vice.Server
	addr string
	// ended receives the user of each connection once ServeConn is done
	// with it, cleanup included.
	ended chan string
}

// realStation is one workstation of a real cell and the connection under it.
type realStation struct {
	*virtue.FS
	peer *rpc.Peer
}

// bulkBack is an op outside Vice's range that the test server answers by
// placing the request's body on the caller's own back channel as an
// OpBulkBreak: a server-initiated batched break on demand.
const bulkBack rpc.Op = 0x7f01

func newRealCell(t *testing.T, mode Mode, users ...string) *realCell {
	t.Helper()
	return bootRealCell(t, vice.Config{Name: "server0", Mode: mode, ProtAuthority: true}, users...)
}

// bootRealCell is newRealCell for a caller with a Config of its own (a store).
func bootRealCell(t *testing.T, cfg vice.Config, users ...string) *realCell {
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
	c := &realCell{srv: srv, addr: l.Addr().String(), ended: make(chan string)}
	stop := make(chan struct{})
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				user, _ := srv.ServeConn(conn, nil)
				select {
				case c.ended <- user:
				case <-stop:
				}
			}()
		}
	}()
	t.Cleanup(func() { l.Close(); close(stop) })

	console := NewAdmin(c.dial(t, "operator", "secret", nil), "server0")
	for _, user := range users {
		if err := console.NewUser(nil, user, "pw", 0); err != nil {
			t.Fatalf("new user %s: %v", user, err)
		}
	}
	return c
}

func (c *realCell) dial(t *testing.T, user, password string, callbacks *rpc.Server) *rpc.Peer {
	t.Helper()
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := rpc.DialPeer(nc, user, secure.DeriveKey(user, password), callbacks)
	if err != nil {
		nc.Close()
		t.Fatalf("dial as %s: %v", user, err)
	}
	t.Cleanup(func() { peer.Close() })
	return peer
}

func (c *realCell) station(t *testing.T, mode Mode, user string) realStation {
	t.Helper()
	callbacks := rpc.NewServer()
	peer := c.dial(t, user, "pw", callbacks)
	fs := virtue.NewWorkstation(venus.Config{
		Mode:       mode,
		Machine:    "ws-" + user,
		Local:      unixfs.New(nil),
		HomeServer: "server0",
		Connect:    func(*sim.Proc, string) (venus.Conn, error) { return peer, nil },
	}, callbacks)
	fs.Venus().Login(user)
	return realStation{FS: fs, peer: peer}
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
// to place the batch; a workstation that registered only OpCallbackBreak, as
// cmd/itcfs once did, refuses it and keeps serving the stale copies.
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
	resp, err := ws.peer.Call(nil, rpc.Request{Op: bulkBack, Body: proto.Marshal(batch)})
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
			if _, writer := c.srv.Locks().Held(fid); writer != "satya" {
				t.Fatalf("lock held by %q before the disconnect", writer)
			}
			if n := c.srv.Callbacks().Outstanding(); (mode == Revised) != (n > 0) {
				t.Fatalf("%d promises outstanding in %s mode before the disconnect", n, mode)
			}
			ws.peer.Close()
			select {
			case user := <-c.ended:
				if user != "satya" {
					t.Fatalf("connection of %q ended, want satya's", user)
				}
			case <-time.After(10 * time.Second): //itcvet:allow wallclock -- bounds a wait on a real socket closing
				t.Fatal("the server never finished with the closed connection")
			}
			if readers, writer := c.srv.Locks().Held(fid); readers != 0 || writer != "" {
				t.Errorf("after the disconnect: %d readers, writer %q", readers, writer)
			}
			if n := c.srv.Callbacks().Outstanding(); n != 0 {
				t.Errorf("after the disconnect: %d promises outstanding", n)
			}
		})
	}
}
