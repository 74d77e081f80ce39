package rpc

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// pipePair connects a dialed and an accepted peer over an in-memory duplex
// stream.
func pipePair(t *testing.T, clientSrv, serverSrv *Server) (*Peer, *Peer) {
	t.Helper()
	cc, sc := net.Pipe()
	return pairOver(t, cc, sc, clientSrv, serverSrv)
}

// tcpPair is pipePair over a loopback TCP connection: real sockets.
func tcpPair(t *testing.T, clientSrv, serverSrv *Server) (*Peer, *Peer) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := l.Accept()
	if err != nil {
		cc.Close()
		t.Fatal(err)
	}
	return pairOver(t, cc, sc, clientSrv, serverSrv)
}

// pairOver runs the handshake over the two ends of one connection, the
// client's cc and the server's sc.
func pairOver(t *testing.T, cc, sc net.Conn, clientSrv, serverSrv *Server) (*Peer, *Peer) {
	t.Helper()
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
	srv.Observe("server", nil, reg, nil)
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
// slots calls wait on — a channel and a timer each, drawn by call after call
// from one pool. 32 goroutines place 200 calls each on one peer pair, pair
// after pair, so that each draws the slots the one before it returned and
// would draw any it had wrongly returned with an outcome still to come. Every
// call must come back with its own echo or with an error it earned — never
// another call's reply.
//
//   - close: the far side closes at a seeded point. The slots of the calls
//     then pending get ErrClosed, or are abandoned with it possibly still on
//     its way (PR 18's rule).
//   - deadline: every call has a short deadline, and the server holds every
//     eighth one until its caller has given up, so some replies arrive after
//     their caller's deadline and others race it. Each late reply must be
//     released on deliver's "caller is gone" path, no expired entry may stay
//     pending, and no call may expire before its deadline, as a pooled
//     timer's stale value would make the next call do.
//   - drain: that pooled timer, exactly: one that fired while its call's
//     reply won is stopped and drained before its slot goes back.
func TestPeerReusedChannelsCarryNoStaleOutcome(t *testing.T) {
	const callers, calls = 32, 200
	// hammer places the calls on dialed and checks every echo; each error
	// goes to failed with how long its call took, which reports false to
	// stop the caller.
	hammer := func(t *testing.T, dialed *Peer, seed int64, failed func(want uint64, err error, took time.Duration) bool) (echoed int64) {
		var wg sync.WaitGroup
		var n atomic.Int64
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					want := uint64(seed)<<32 | uint64(g)<<16 | uint64(i)
					start := Clock(nil)
					resp, err := dialed.Call(nil, Request{Op: opEcho, Body: binary.BigEndian.AppendUint64(nil, want)})
					switch {
					case err != nil:
						if !failed(want, err, Clock(nil).Sub(start)) {
							t.Errorf("seed %d caller %d call %d: %v", seed, g, i, err)
							return
						}
					case len(resp.Body) != 8 || binary.BigEndian.Uint64(resp.Body) != want:
						t.Errorf("seed %d caller %d call %d: got the reply to %x", seed, g, i, resp.Body)
						return
					default:
						resp.Release()
						n.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		return n.Load()
	}

	t.Run("close", func(t *testing.T) {
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
			var refused atomic.Int64
			echoed := hammer(t, dialed, seed, func(_ uint64, err error, _ time.Duration) bool {
				refused.Add(1)
				return errors.Is(err, ErrClosed)
			})
			if echoed == 0 || refused.Load() == 0 {
				t.Errorf("seed %d: %d echoed, %d refused; want calls on both sides of the close", seed, echoed, refused.Load())
			}
		}
	})

	t.Run("deadline", func(t *testing.T) {
		held := func(want uint64) bool { return want%8 == 0 }
		var echoes int64
		for seed := int64(1); seed <= 4; seed++ {
			// From 100 µs, where calls the server answers at once expire
			// too, their replies in flight, to 800 µs, where few do.
			d := 100 * time.Microsecond << (seed - 1)
			gone := map[uint64]chan struct{}{} // a held call's, closed when its caller gives up
			for g := uint64(0); g < callers; g++ {
				for i := uint64(0); i < calls; i++ {
					if want := uint64(seed)<<32 | g<<16 | i; held(want) {
						gone[want] = make(chan struct{})
					}
				}
			}
			abort := make(chan struct{}) // releases held calls a failed caller left behind
			t.Cleanup(func() { close(abort) })
			srv := NewServer()
			srv.Handle(opEcho, func(_ Ctx, req Request) Response {
				if want := binary.BigEndian.Uint64(req.Body); held(want) {
					select {
					case <-gone[want]:
					case <-abort:
					}
				}
				return Response{Body: req.Body}
			})
			dialed, _ := pipePair(t, nil, srv)
			dialed.timeout = d
			var expired atomic.Int64
			echoed := hammer(t, dialed, seed, func(want uint64, err error, took time.Duration) bool {
				if !errors.Is(err, ErrTimeout) {
					return false
				}
				if took < d {
					t.Errorf("seed %d: a call expired after %v, before its %v deadline", seed, took, d)
				}
				expired.Add(1)
				if held(want) {
					close(gone[want])
				}
				return true
			})
			if t.Failed() {
				return
			}
			if expired.Load() < int64(len(gone)) {
				t.Fatalf("seed %d: %d expired; want every one of the %d held calls expired", seed, expired.Load(), len(gone))
			}
			echoes += echoed
			// Every expired call's reply comes, late, and finds its caller
			// gone; the test ends by its timeout if one is never released.
			for dialed.orphans.Load() < expired.Load() {
				runtime.Gosched()
			}
			dialed.mu.Lock()
			pending := len(dialed.pending)
			dialed.mu.Unlock()
			if n := dialed.orphans.Load(); n != expired.Load() || pending != 0 {
				t.Fatalf("seed %d: %d calls expired, %d late replies released, %d entries pending; want equal, equal, 0", seed, expired.Load(), n, pending)
			}
			t.Logf("seed %d, %v deadline: %d echoed, %d expired", seed, d, echoed, expired.Load())
		}
		if echoes == 0 {
			t.Fatal("no call was answered in time")
		}
	})

	t.Run("drain", func(t *testing.T) {
		s := slots.New().(*slot)
		s.timer.Reset(time.Nanosecond)
		if cap(s.timer.C) != 1 {
			t.Fatal("timer channels are synchronous: go.mod's go line no longer selects the semantics slot.disarm is written for")
		}
		for len(s.timer.C) == 0 { // fired and not received, as when the reply won
			runtime.Gosched()
		}
		s.disarm()
		if len(s.timer.C) != 0 {
			t.Fatal("disarm pooled a timer with its fired value still in C")
		}
		s.timer.Reset(time.Hour)
		select {
		case <-s.timer.C:
			t.Fatal("a re-armed slot expired at once")
		default:
		}
		s.disarm()
	})
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

// TestPeerStalledServerCostsOneTimeout: on real sockets, a server whose
// handler never returns — a lost reply, as far as its callers can tell —
// costs each of several concurrent callers one deadline, then ErrTimeout,
// which is also ErrUnreachable. Every expired call's entry is reclaimed and
// the peer goes on carrying calls the server does answer. At the parent
// commit every caller waited for ever.
func TestPeerStalledServerCostsOneTimeout(t *testing.T) {
	const callers, d = 8, 300 * time.Millisecond
	stall := make(chan struct{})
	srv := echoServer()
	srv.Handle(opStat, func(Ctx, Request) Response { <-stall; return Response{} })
	dialed, _ := tcpPair(t, nil, srv)
	t.Cleanup(func() { close(stall) }) // before the pair closes: the late replies find their callers gone
	dialed.timeout = d
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start := Clock(nil)
			_, err := dialed.Call(nil, Request{Op: opStat})
			took := Clock(nil).Sub(start)
			if !errors.Is(err, ErrTimeout) || !errors.Is(err, ErrUnreachable) {
				t.Errorf("caller %d: err = %v, want ErrTimeout", g, err)
			} else if took < d || took >= 2*d {
				t.Errorf("caller %d: gave up after %v, want one %v deadline", g, took, d)
			}
		}(g)
	}
	wg.Wait()
	dialed.mu.Lock()
	pending := len(dialed.pending)
	dialed.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d expired calls still pending", pending)
	}
	resp, err := dialed.Call(nil, Request{Op: opEcho, Body: []byte("still here")})
	if err != nil || string(resp.Body) != "still here" {
		t.Fatalf("call after the timeouts: %q, %v", resp.Body, err)
	}
	resp.Release()
}

// TestPeerCarriesTheCallersTraceHeader: over real sockets, a client whose
// tracer Server.Observe named sends its rpc.call span's context in the call
// header, and the server's rpc.serve span continues that trace as the call
// span's child. At the parent commit the header went zeroed and the server
// started a root of its own.
func TestPeerCarriesTheCallersTraceHeader(t *testing.T) {
	wall := func() sim.Time { return Clock(nil) }
	clientTr, serverTr := trace.New(wall), trace.New(wall)
	// A root the server started by itself would now be trace 2, never the
	// client's trace 1 by coincidence.
	serverTr.Begin(nil, "boot", "server").End()
	clientSrv, serverSrv := NewServer(), echoServer()
	clientSrv.Observe("ws", clientTr, nil, nil)
	serverSrv.Observe("server", serverTr, nil, nil)
	dialed, _ := tcpPair(t, clientSrv, serverSrv)
	resp, err := dialed.Call(nil, Request{Op: opEcho, Body: []byte("traced")})
	if err != nil {
		t.Fatal(err)
	}
	resp.Release()
	only := func(tr *trace.Tracer, name string) *trace.Span {
		var found []*trace.Span
		for _, s := range tr.Spans() {
			if s.Name() == name {
				found = append(found, s)
			}
		}
		if len(found) != 1 {
			t.Fatalf("%d %s spans, want 1", len(found), name)
		}
		return found[0]
	}
	call, serve := only(clientTr, trace.SpanRPCCall), only(serverTr, trace.SpanRPCServe)
	if serve.Context().Trace != call.Context().Trace || serve.Parent() != call.Context().Span {
		t.Fatalf("rpc.serve is in trace %d under span %d; want trace %d under the rpc.call span %d",
			serve.Context().Trace, serve.Parent(), call.Context().Trace, call.Context().Span)
	}
	// Each end records its spans on the machine its Server.Observe named,
	// its own, not the far side's.
	if call.Node() != "ws" || serve.Node() != "server" {
		t.Errorf("rpc.call recorded on %q and rpc.serve on %q; want ws and server", call.Node(), serve.Node())
	}
}
