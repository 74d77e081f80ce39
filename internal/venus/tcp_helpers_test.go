package venus

import (
	"io"
	"net"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/unixfs"
	"itcfs/internal/vice"
)

// A real server — vice.Boot serving a loopback listener — for this
// directory's TCP tests. Those that must reach inside Venus
// (ownership_test.go) cannot import virtue, which imports venus, so they wire
// a bare Venus to it with tcpVenus; the tests of the assembled workstation
// (tcp_integration_test.go, package venus_test) take its address.

// tcpCell is one Vice server on a loopback listener.
type tcpCell struct{ addr string }

func newTCPCell(t *testing.T, mode vice.Mode) *tcpCell {
	t.Helper()
	srv, _, err := vice.Boot(vice.Config{Name: "tcp0", Mode: mode}, "pw")
	if err != nil {
		t.Fatal(err)
	}
	// Both users are operations staff: these tests are about transport, and
	// staff may write anywhere.
	for _, user := range []string{"satya", "howard"} {
		for _, m := range []prot.Mutation{
			{Kind: prot.MutAddUser, Name: user, Key: secure.DeriveKey(user, "pw")},
			{Kind: prot.MutAddMember, Name: vice.AdminGroup, Member: user},
		} {
			if err := srv.DB().Apply(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l, nil)
	t.Cleanup(func() { l.Close() })
	return &tcpCell{addr: l.Addr().String()}
}

// TCPServer starts such a server for the external test package and returns
// its address; the operator's password is "pw".
func TCPServer(t *testing.T, mode vice.Mode) string { return newTCPCell(t, mode).addr }

// TCPDial returns a dial function for PeerConnector that reaches addr over
// loopback TCP; the test's cleanup closes every connection it opened.
func TCPDial(t *testing.T, addr string) func(string) (io.ReadWriteCloser, error) {
	return func(string) (io.ReadWriteCloser, error) {
		nc, err := net.Dial("tcp", addr)
		if err == nil {
			t.Cleanup(func() { nc.Close() })
		}
		return nc, err
	}
}

// tcpVenus is a Venus connected over TCP.
func (c *tcpCell) tcpVenus(t *testing.T, mode vice.Mode, user, password string) *Venus {
	t.Helper()
	cbServer := rpc.NewServer()
	v := New(Config{
		Mode:       mode,
		Machine:    "tcp-ws-" + user,
		Local:      unixfs.New(nil),
		HomeServer: "tcp0",
		Connect:    PeerConnector(TCPDial(t, c.addr), user, secure.DeriveKey(user, password), cbServer),
	})
	cbServer.Handle(rpc.Op(proto.OpCallbackBreak), v.HandleCallbackBreak)
	cbServer.Handle(rpc.Op(proto.OpBulkBreak), v.HandleBulkBreak)
	v.Login(user)
	return v
}
