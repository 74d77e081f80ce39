package venus

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
	"itcfs/internal/vice"
)

// shortenDeadline moves p's call deadline, which rpc deliberately gives no
// setter for (every Peer waits 60 s), by reaching the unexported field
// through reflection. A renamed field fails loudly here.
func shortenDeadline(p *rpc.Peer, d time.Duration) {
	f := reflect.ValueOf(p).Elem().FieldByName("timeout")
	*(*time.Duration)(unsafe.Pointer(f.UnsafeAddr())) = d
}

// TestDroppedPeerIsClosed: over TCP, a fetch from a server that names
// itself custodian of everything and then never answers expires, and Venus
// drops the connection — which must close the Peer, its socket, read loop
// and parked workers with it (TestMain's leakcheck fails the package on a
// goroutine left behind). At the parent commit the call never expired, and
// dropConn's check matched SimConn's Close but not Peer's, so a dropped Peer
// stayed open.
func TestDroppedPeerIsClosed(t *testing.T) {
	hung := make(chan struct{})
	defer close(hung) // the server's worker returns; its reply finds the socket closed
	srv := rpc.NewServer()
	srv.Handle(rpc.Op(proto.OpGetCustodian), func(rpc.Ctx, rpc.Request) rpc.Response {
		return rpc.Response{Body: proto.Marshal(proto.LocEntry{Prefix: "/", Volume: 1, Custodian: "tcp0"})}
	})
	srv.HandleFallback(func(rpc.Ctx, rpc.Request) rpc.Response { <-hung; return rpc.Response{} })
	key := secure.DeriveKey("satya", "pw")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		if _, err := rpc.AcceptPeer(nc, func(string) (secure.Key, bool) { return key, true }, srv); err != nil {
			nc.Close()
		}
	}()

	var peer *rpc.Peer
	v := New(Config{
		Mode:       vice.Revised,
		Machine:    "tcp-ws",
		Local:      unixfs.New(nil),
		HomeServer: "tcp0",
		Connect: func(_ *sim.Proc, _ string) (Conn, error) {
			nc, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				return nil, err
			}
			p, err := rpc.DialPeer(nc, "satya", key, nil)
			if err != nil {
				nc.Close()
				return nil, err
			}
			shortenDeadline(p, 100*time.Millisecond)
			peer = p
			return p, nil
		},
	})
	v.Login("satya")
	if _, err := v.Stat(nil, "/vice/f"); !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("stat on a hung server: err = %v, want rpc.ErrTimeout", err)
	}
	<-peer.Done() // a dropped Peer left open fails the test by its timeout
}
