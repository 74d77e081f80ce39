package rpc

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"itcfs/internal/trace"
)

// pipePair connects a dialed and an accepted peer over an in-memory duplex
// stream.
func pipePair(t *testing.T, clientSrv, serverSrv *Server) (*Peer, *Peer) {
	t.Helper()
	cc, sc := net.Pipe()
	var wg sync.WaitGroup
	var accepted *Peer
	var acceptErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		accepted, acceptErr = AcceptPeer(sc, keys, serverSrv)
	}()
	dialed, dialErr := DialPeer(cc, "satya", userKey, clientSrv)
	wg.Wait()
	if dialErr != nil || acceptErr != nil {
		t.Fatalf("dial: %v accept: %v", dialErr, acceptErr)
	}
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

func TestPeerCallRoundTrip(t *testing.T) {
	dialed, accepted := pipePair(t, nil, echoServer())
	if accepted.User() != "satya" {
		t.Fatalf("accepted user = %q", accepted.User())
	}
	resp, err := dialed.Call(nil, Request{Op: opEcho, Body: []byte("over tcp"), Bulk: []byte("bulk")})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(resp.Body) != "over tcp" || string(resp.Bulk) != "bulk" {
		t.Fatalf("resp = %+v", resp)
	}
}

// TestPeerFirstCallObserved: AcceptPeer starts the read loop before its
// caller has the peer to configure, so observers installed on the peer
// afterwards can miss the first call. Named on the server beforehand, they
// miss none.
func TestPeerFirstCallObserved(t *testing.T) {
	reg := trace.NewRegistry()
	srv := echoServer()
	srv.Observe(nil, reg)
	dialed, _ := pipePair(t, nil, srv)
	if _, err := dialed.Call(nil, Request{Op: opEcho}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Histogram(trace.MetricRPCServeLatency).Count(); n != 1 {
		t.Fatalf("%s counted %d calls after the first, want 1", trace.MetricRPCServeLatency, n)
	}
}

func TestPeerConcurrentCalls(t *testing.T) {
	dialed, _ := pipePair(t, nil, echoServer())
	var wg sync.WaitGroup
	errs := make([]error, 20)
	for i := 0; i < 20; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte{byte(i)}
			resp, err := dialed.Call(nil, Request{Op: opEcho, Body: body})
			if err != nil {
				errs[i] = err
				return
			}
			if len(resp.Body) != 1 || resp.Body[0] != byte(i) {
				errs[i] = errors.New("reply mismatch")
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestPeerReusedChannelsCarryNoStaleOutcome is the gate on recycling the
// channels calls wait on: 32 goroutines place 200 calls each on one peer pair
// whose far side is closed at a seeded point, pair after pair so that each
// draws the channels the one before it returned (and would draw any it had
// abandoned with an ErrClosed still inside). Every call must come back with
// its own echo or with ErrClosed — never another call's reply, never a
// failure it did not earn.
func TestPeerReusedChannelsCarryNoStaleOutcome(t *testing.T) {
	const callers, calls = 32, 200
	for seed := int64(1); seed <= 4; seed++ {
		closeAt := rand.New(rand.NewSource(seed)).Int63n(callers * calls)
		var served atomic.Int64
		reached := make(chan struct{})
		srv := NewServer()
		srv.Handle(opEcho, func(_ Ctx, req Request) Response {
			if served.Add(1) == closeAt+1 {
				close(reached)
			}
			return Response{Body: req.Body}
		})
		dialed, accepted := pipePair(t, nil, srv)
		go func() {
			<-reached
			accepted.Close()
		}()
		var wg sync.WaitGroup
		var echoed, refused atomic.Int64
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					want := uint64(seed)<<32 | uint64(g)<<16 | uint64(i)
					resp, err := dialed.Call(nil, Request{Op: opEcho, Body: binary.BigEndian.AppendUint64(nil, want)})
					switch {
					case errors.Is(err, ErrClosed):
						refused.Add(1)
					case err != nil:
						t.Errorf("seed %d caller %d call %d: %v", seed, g, i, err)
						return
					case len(resp.Body) != 8 || binary.BigEndian.Uint64(resp.Body) != want:
						t.Errorf("seed %d caller %d call %d: got the reply to %x", seed, g, i, resp.Body)
						return
					default:
						echoed.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		if echoed.Load() == 0 || refused.Load() == 0 {
			t.Errorf("seed %d: %d echoed, %d refused; want calls on both sides of the close", seed, echoed.Load(), refused.Load())
		}
	}
}

func TestPeerServerCallback(t *testing.T) {
	clientSrv := NewServer()
	clientSrv.Handle(opPoke, func(_ Ctx, _ Request) Response {
		return Response{Body: []byte("acked")}
	})
	serverSrv := NewServer()
	serverSrv.Handle(opStat, func(ctx Ctx, _ Request) Response {
		resp, err := ctx.Back.CallBack(nil, Request{Op: opPoke})
		if err != nil || string(resp.Body) != "acked" {
			return Response{Code: 2}
		}
		return Response{Body: []byte("stored")}
	})
	dialed, _ := pipePair(t, clientSrv, serverSrv)
	resp, err := dialed.Call(nil, Request{Op: opStat})
	if err != nil || !resp.OK() || string(resp.Body) != "stored" {
		t.Fatalf("resp = %+v err = %v", resp, err)
	}
}

func TestPeerWrongPasswordRejected(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	go func() {
		// The server rejects at Challenge and drops the connection.
		if _, err := AcceptPeer(sc, keys, nil); err == nil {
			t.Error("server accepted a bad password")
		}
		sc.Close()
	}()
	if _, err := DialPeer(cc, "satya", userKey2(), nil); err == nil {
		t.Fatal("client connected with wrong password")
	}
}

func userKey2() [32]byte {
	k := userKey
	k[0] ^= 0xFF
	return k
}

func TestPeerCloseFailsInflight(t *testing.T) {
	stall := make(chan struct{})
	srv := NewServer()
	srv.Handle(opEcho, func(_ Ctx, req Request) Response {
		<-stall
		return Response{}
	})
	dialed, _ := pipePair(t, nil, srv)
	done := make(chan error, 1)
	go func() {
		_, err := dialed.Call(nil, Request{Op: opEcho})
		done <- err
	}()
	dialed.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	close(stall)
	if _, err := dialed.Call(nil, Request{Op: opEcho}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close call err = %v", err)
	}
}

func TestPeerNoServerReturnsUnknownOp(t *testing.T) {
	dialed, accepted := pipePair(t, nil, echoServer())
	// The accepted side calls the dialed side, which has no server.
	resp, err := accepted.Call(nil, Request{Op: opEcho})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if resp.Code != CodeUnknownOp {
		t.Fatalf("code = %d, want CodeUnknownOp", resp.Code)
	}
	_ = dialed
}

func TestPeerOverRealTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		if _, err := AcceptPeer(c, keys, echoServer()); err != nil {
			t.Errorf("accept: %v", err)
		}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := DialPeer(c, "satya", userKey, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer peer.Close()
	resp, err := peer.Call(nil, Request{Op: opEcho, Body: []byte("real tcp")})
	if err != nil || string(resp.Body) != "real tcp" {
		t.Fatalf("resp = %+v err = %v", resp, err)
	}
}
