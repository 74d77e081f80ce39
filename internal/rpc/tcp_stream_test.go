package rpc

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"itcfs/internal/secure"
	"itcfs/internal/trace"
	"itcfs/internal/wire"
)

// sealedCallFrame returns the bytes a Peer holding box would put on the wire
// for one call.
func sealedCallFrame(t *testing.T, box *secure.Box, seq uint32, req Request) []byte {
	t.Helper()
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.U8(kindCall)
	encodeCallHead(e, seq, wire.TraceHeader{}, req)
	var frame bytes.Buffer
	if err := box.SealFrame(&frame, e.Buf(), req.Bulk); err != nil {
		t.Fatal(err)
	}
	return frame.Bytes()
}

// servingPeer starts the receiving half of an authenticated connection (the
// handshake is skipped: both ends are simply given the session key, the
// peer as its accepting end) whose
// handler reports each run on served. The returned conn is the far end.
func servingPeer(t *testing.T, session secure.Key) (far net.Conn, p *Peer, served chan struct{}) {
	t.Helper()
	served = make(chan struct{}, 1) // one frame is sent per peer, so at most one run
	srv := NewServer()
	srv.HandleFallback(func(_ Ctx, req Request) Response {
		served <- struct{}{}
		return Response{}
	})
	far, near := net.Pipe()
	p = newPeer(near, secure.NewSessionBox(session, secure.Acceptor), "satya", "satya", srv, true)
	go p.readLoop()
	t.Cleanup(func() { p.Close(); far.Close() })
	return far, p, served
}

// TestPeerTamperedFrameClosesPeer: one flipped bit anywhere in a frame — the
// nonce, any chunk of a multi-chunk ciphertext, the tag — or a frame cut off
// mid-way closes the receiving Peer before any handler sees a byte of it.
// The same frame unharmed is served, so the rejections are the tampering's.
func TestPeerTamperedFrameClosesPeer(t *testing.T) {
	session := secure.DeriveKey("session", "key")
	const chunk = 32 << 10 // the sealer's chunk; any value spreads the flips
	req := Request{Op: opEcho, Body: []byte("args"), Bulk: bytes.Repeat([]byte{0xAB}, 3*chunk+7)}
	good := sealedCallFrame(t, secure.NewSessionBox(session, secure.Dialer), 1, req)

	far, p, served := servingPeer(t, session)
	go io.Copy(io.Discard, far)
	if _, err := far.Write(good); err != nil {
		t.Fatal(err)
	}
	<-served // a frame that never gets here fails the test by its timeout
	p.Close()

	tampers := map[string]func([]byte) []byte{
		"nonce":     func(f []byte) []byte { f[wire.FrameHeaderSize+2] ^= 0x04; return f },
		"chunk 0":   func(f []byte) []byte { f[100] ^= 0x01; return f },
		"chunk 1":   func(f []byte) []byte { f[chunk+100] ^= 0x01; return f },
		"chunk 2":   func(f []byte) []byte { f[2*chunk+100] ^= 0x01; return f },
		"chunk 3":   func(f []byte) []byte { f[3*chunk+20] ^= 0x01; return f },
		"tag":       func(f []byte) []byte { f[len(f)-5] ^= 0x40; return f },
		"truncated": func(f []byte) []byte { return f[:len(f)/2] },
	}
	for name, tamper := range tampers {
		far, p, served := servingPeer(t, session)
		bad := tamper(append([]byte(nil), good...))
		go func() {
			far.Write(bad)
			far.Close() // a truncated frame ends here, mid-payload
		}()
		<-p.Done()
		if len(served) != 0 {
			t.Fatalf("%s: a frame that failed authentication reached the handler", name)
		}
	}
}

// flakyConn passes traffic through until armed, then lets budget more bytes
// out and fails the Write that would exceed it (after a short write, as a
// socket dying mid-frame does).
type flakyConn struct {
	net.Conn
	armed  atomic.Bool
	budget atomic.Int64
}

var errLinkDown = errors.New("link down")

func (c *flakyConn) Write(p []byte) (int, error) {
	if !c.armed.Load() {
		return c.Conn.Write(p)
	}
	left := c.budget.Add(-int64(len(p)))
	if left >= 0 {
		return c.Conn.Write(p)
	}
	keep := len(p) + int(left)
	if keep > 0 {
		c.Conn.Write(p[:keep])
	}
	return max(keep, 0), errLinkDown
}

// TestPeerFailedWriteClosesPeer: a Write that fails part-way through a
// streamed frame leaves the far side mid-frame, so the peer must close:
// the failed call, a call already in flight and every later call all see
// ErrClosed.
func TestPeerFailedWriteClosesPeer(t *testing.T) {
	stall := make(chan struct{})
	srv := echoServer()
	srv.Handle(opStat, func(Ctx, Request) Response { <-stall; return Response{} })
	defer close(stall)

	cc, sc := net.Pipe()
	flaky := &flakyConn{Conn: cc}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if accepted, err := AcceptPeer(sc, keys, srv); err == nil {
			t.Cleanup(func() { accepted.Close() })
		}
	}()
	dialed, err := DialPeer(flaky, "satya", userKey, nil)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()

	inflight := make(chan error, 1)
	go func() {
		_, err := dialed.Call(nil, Request{Op: opStat})
		inflight <- err
	}()
	// The stalled call is on the wire once a second call gets an answer.
	if _, err := dialed.Call(nil, Request{Op: opEcho}); err != nil {
		t.Fatal(err)
	}

	flaky.budget.Store(100 << 10) // dies in the fourth chunk of the next frame
	flaky.armed.Store(true)
	_, err = dialed.Call(nil, Request{Op: opEcho, Bulk: make([]byte, 1<<20)})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("call whose write failed: err = %v, want ErrClosed", err)
	}
	<-dialed.Done()
	if err := <-inflight; !errors.Is(err, ErrClosed) {
		t.Fatalf("in-flight call: err = %v, want ErrClosed", err)
	}
	if _, err := dialed.Call(nil, Request{Op: opEcho}); !errors.Is(err, ErrClosed) {
		t.Fatalf("later call: err = %v, want ErrClosed", err)
	}
}

// boxField reaches the unexported field of box along path, which secure
// deliberately gives no setter for, through reflection. A renamed field
// fails loudly here.
func boxField(box *secure.Box, path ...string) reflect.Value {
	f := reflect.ValueOf(box).Elem()
	for _, name := range path {
		if f = f.FieldByName(name); !f.IsValid() {
			panic("secure.Box has no field " + name)
		}
	}
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// presetNonceCounter moves a session's record count to v at both ends: the
// count sender's next record carries, and receiver's expectation of it, as
// if every record before had arrived.
func presetNonceCounter(sender, receiver *secure.Box, v uint64) {
	boxField(sender, "send", "next").SetUint(v)
	boxField(receiver, "recv", "next").SetUint(v)
}

// TestPeerNonceExhaustionClosesPeer: when the session's 64-bit record count
// is spent the daemon must not die (Box.Seal would panic) and must not reuse
// a nonce: the peer closes, callers see ErrClosed — which Venus treats as
// "reconnect", and a new connection has a new session key.
func TestPeerNonceExhaustionClosesPeer(t *testing.T) {
	dialed, accepted := pipePair(t, nil, echoServer())
	last := Request{Op: opEcho, Body: []byte("last record")}
	if _, err := dialed.Call(nil, last); err != nil {
		t.Fatal(err)
	}
	if sent := boxField(dialed.box, "send", "next").Uint(); sent != 1 {
		t.Fatalf("one call's record took %d counts, want 1", sent)
	}
	presetNonceCounter(dialed.box, accepted.box, math.MaxUint64-1) // the last count a record may carry
	if _, err := dialed.Call(nil, last); err != nil {
		t.Fatalf("the last record: %v", err)
	}
	if _, err := dialed.Call(nil, Request{Op: opEcho}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call past the last record: err = %v, want ErrClosed", err)
	}
	<-dialed.Done()
	<-accepted.Done() // its peer hung up
}

// TestAcceptPeerConfigureRace is the -race regression for configuring an
// accepted peer: AcceptPeer starts serving before it returns, so SetMetrics
// necessarily runs beside the first calls.
func TestAcceptPeerConfigureRace(t *testing.T) {
	for i := 0; i < 20; i++ {
		cc, sc := net.Pipe()
		fired := make(chan error, 1)
		go func() {
			dialed, err := DialPeer(cc, "satya", userKey, nil)
			if err != nil {
				fired <- err
				return
			}
			defer dialed.Close()
			for j := 0; j < 4 && err == nil; j++ {
				_, err = dialed.Call(nil, Request{Op: opEcho})
			}
			fired <- err
		}()
		accepted, err := AcceptPeer(sc, keys, echoServer())
		if err != nil {
			t.Fatal(err)
		}
		accepted.SetMetrics(trace.NewRegistry())
		if err := <-fired; err != nil {
			t.Fatal(err)
		}
		accepted.Close()
	}
}

// TestHandshakeFrameCap: before authentication a 4-byte header may not buy
// a 64 MiB allocation. Both handshake roles refuse it with ErrTooLong having
// allocated next to nothing.
func TestHandshakeFrameCap(t *testing.T) {
	hostile := func(conn net.Conn) {
		var hdr [wire.FrameHeaderSize]byte
		wire.PutFrameHeader(hdr[:], wire.MaxField)
		go io.Copy(io.Discard, conn) // swallow a dialer's hello
		conn.Write(hdr[:])
	}
	roles := map[string]func(net.Conn) error{
		"AcceptPeer": func(c net.Conn) error { _, err := AcceptPeer(c, keys, nil); return err },
		"DialPeer":   func(c net.Conn) error { _, err := DialPeer(c, "satya", userKey, nil); return err },
	}
	for name, role := range roles {
		near, far := net.Pipe()
		go hostile(far)
		var err error
		grew := allocatedBytes(func() { err = role(near) })
		near.Close()
		far.Close()
		if !errors.Is(err, wire.ErrTooLong) {
			t.Fatalf("%s: err = %v, want wire.ErrTooLong", name, err)
		}
		if grew >= 64<<10 {
			t.Fatalf("%s: a 64 MiB length prefix cost %d bytes of allocation before authentication", name, grew)
		}
	}
}

func BenchmarkPeerEcho4MTCP(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		AcceptPeer(c, keys, echoServer())
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	peer, err := DialPeer(c, "satya", userKey, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer peer.Close()
	bulk := make([]byte, 4<<20)
	b.SetBytes(2 * int64(len(bulk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := peer.Call(nil, Request{Op: opEcho, Bulk: bulk}); err != nil {
			b.Fatal(err)
		}
	}
}
