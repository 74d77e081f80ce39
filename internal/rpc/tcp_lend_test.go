package rpc

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"itcfs/internal/sim"
)

// seeded returns n bytes drawn from seed: a payload no other call shares.
func seeded(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// isZero reports whether every byte of b is zero.
func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// lendSizes are the Bulk sizes the lent-buffer tests send: every tier, each
// side of each tier's edge, and both sides of the hand-over size.
var lendSizes = []int{
	0, 1, 100,
	frameTiers[0] - 200, frameTiers[0],
	64 << 10, frameTiers[1] - 200, frameTiers[1],
	200 << 10, handOver - 200, handOver, 300 << 10,
}

// TestPeerHandsOverExactlyTheUnpooledFrames: the pool lends every frame
// shorter than the hand-over size, and a Peer marks Owned exactly the calls
// and replies whose frame it did not lend, on both sides of the connection.
func TestPeerHandsOverExactlyTheUnpooledFrames(t *testing.T) {
	if top := frameTiers[len(frameTiers)-1]; top != handOver {
		t.Fatalf("the largest tier is %d bytes, want handOver (%d)", top, handOver)
	}
	if fr := lendFrame(handOver); fr != nil {
		t.Fatal("a hand-over-sized frame was lent from the pool")
	}
	fr := lendFrame(handOver - 1)
	if fr == nil {
		t.Fatal("a frame just under the hand-over size was not lent")
	}
	fr.release()

	var called atomic.Bool // the last call's Owned, as its handler saw it
	srv := NewServer()
	srv.Handle(opEcho, func(_ Ctx, req Request) Response {
		called.Store(req.Owned)
		return Response{Body: req.Body, Bulk: req.Bulk}
	})
	dialed, _ := pipePair(t, nil, srv)
	for _, n := range lendSizes {
		// Every size in lendSizes is at least 200 B from the edge, more
		// than a head and a seal add: a frame is handed over when its
		// Bulk is.
		want := n >= handOver
		resp, err := dialed.Call(nil, Request{Op: opEcho, Bulk: seeded(int64(n), n)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Owned != want || (resp.frame == nil) != want || called.Load() != want {
			t.Errorf("%d B: reply owned %v (frame lent %v), call owned %v; want %v",
				n, resp.Owned, resp.frame != nil, called.Load(), want)
		}
		resp.Release()
	}
}

// TestPeerLentBuffersUnderLoad is the reuse-race gate (ci.sh runs it with
// -race -count=20): eight goroutines send echo calls with payloads no other
// call shares, every size in lendSizes, while the server places callback
// calls on the same connection, so frames of both kinds and every tier are
// lent, given back and lent again on both sides at once. Each reply must be
// its own request byte for byte up to the moment it is released.
func TestPeerLentBuffersUnderLoad(t *testing.T) {
	dialed, accepted := pipePair(t, echoServer(), echoServer())
	const callers, rounds = 8, 2
	stop := make(chan struct{})
	callbacks := make(chan int)
	go func() { // the server's side of the traffic, until the callers are done
		i := 0
		defer func() { callbacks <- i }()
		for ; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			body := seeded(-1-int64(i), 64+i%200)
			bulk := seeded(1<<40+int64(i), lendSizes[i%len(lendSizes)]/4)
			resp, err := accepted.Call(nil, Request{Op: opEcho, Body: body, Bulk: bulk})
			if err != nil {
				t.Errorf("callback %d: %v", i, err)
				return
			}
			if !bytes.Equal(resp.Body, body) || !bytes.Equal(resp.Bulk, bulk) {
				t.Errorf("callback %d: echo differs from its request", i)
			}
			resp.Release()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range lendSizes {
					// Each caller walks the sizes from its own starting point.
					n := lendSizes[(i+g)%len(lendSizes)]
					seed := int64(g)<<32 | int64(r)<<16 | int64(i)
					body := seeded(seed, 16+g)
					bulk := seeded(^seed, n)
					resp, err := dialed.Call(nil, Request{Op: opEcho, Body: body, Bulk: bulk})
					if err != nil {
						t.Errorf("caller %d call %d (%d B): %v", g, i, n, err)
						return
					}
					if !bytes.Equal(resp.Body, body) || !bytes.Equal(resp.Bulk, bulk) {
						t.Errorf("caller %d call %d (%d B): echo differs from its request", g, i, n)
					}
					resp.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if n := <-callbacks; n == 0 && !t.Failed() {
		t.Fatal("the server placed no callback call while the callers ran")
	}
}

// TestReleaseWipesTheLentBytes: once released, the bytes a reply lay in read
// as zeros — one call's plaintext is never there for the next frame's
// receiver to find.
func TestReleaseWipesTheLentBytes(t *testing.T) {
	dialed, _ := pipePair(t, nil, echoServer())
	for _, n := range lendSizes {
		if n >= handOver {
			continue
		}
		body, bulk := seeded(int64(n), 100), seeded(^int64(n), n)
		resp, err := dialed.Call(nil, Request{Op: opEcho, Body: body, Bulk: bulk})
		if err != nil {
			t.Fatal(err)
		}
		gotBody, gotBulk := resp.Body, resp.Bulk
		if !bytes.Equal(gotBody, body) || !bytes.Equal(gotBulk, bulk) {
			t.Fatalf("%d B: echo differs from its request", n)
		}
		resp.Release()
		if !isZero(gotBody) || !isZero(gotBulk) {
			t.Fatalf("%d B: released bytes still readable", n)
		}
	}
}

// TestReleaseIsHarmless: releasing twice gives the buffer back once (two
// later frames never share it); a reply from the hand-over size on is the
// caller's to keep, so Release leaves it alone; and on the simulated
// transport Release does nothing at all.
func TestReleaseIsHarmless(t *testing.T) {
	dialed, _ := pipePair(t, nil, echoServer())
	resp, err := dialed.Call(nil, Request{Op: opEcho, Bulk: seeded(1, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	resp.Release()
	resp.Release()
	a, b := lendFrame(1000), lendFrame(1000)
	if a == b {
		t.Fatal("a response released twice was lent to two frames at once")
	}
	a.release()
	b.release()

	big := seeded(2, handOver)
	resp, err = dialed.Call(nil, Request{Op: opEcho, Bulk: big})
	if err != nil {
		t.Fatal(err)
	}
	kept := resp.Bulk
	resp.Release()
	resp.Release()
	if !bytes.Equal(kept, big) {
		t.Fatal("Release wiped a hand-over-sized reply, which is its caller's to keep")
	}

	r := newRig(t, EndpointConfig{Server: echoServer()})
	var got Response
	r.k.Spawn("test", func(p *sim.Proc) {
		var conn *SimConn
		if conn, err = r.client.Dial(p, r.server.Node().ID, "satya", userKey); err == nil {
			got, err = conn.Call(p, Request{Op: opEcho, Body: []byte("sim"), Bulk: []byte("bulk")})
		}
	})
	r.k.Run()
	if err != nil {
		t.Fatal(err)
	}
	body := got.Body
	got.Release()
	got.Release()
	if string(body) != "sim" || string(got.Bulk) != "bulk" {
		t.Fatalf("Release changed a simulated response: %q %q", body, got.Bulk)
	}
}

// TestHandlerKeptBodyReadsZeros pins the handler contract (HandlerFunc):
// req.Body is lent until the handler returns. A handler that keeps it anyway
// finds, once the calls are over, zeros — not its own call's bytes and not
// any other call's, though the buffer was lent again in between.
func TestHandlerKeptBodyReadsZeros(t *testing.T) {
	var mu sync.Mutex
	var kept [][]byte
	srv := NewServer()
	srv.Handle(opStat, func(_ Ctx, req Request) Response {
		mu.Lock()
		kept = append(kept, req.Body) // what a handler must not do
		mu.Unlock()
		return Response{}
	})
	dialed, accepted := pipePair(t, nil, srv)
	for i := 0; i < 16; i++ {
		resp, err := dialed.Call(nil, Request{Op: opStat, Body: seeded(int64(i), 200+i)})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	dialed.Close()
	accepted.Close()
	// Every worker has given its call's frame back once both peers' routines
	// have ended.
	dialed.routines.Wait()
	accepted.routines.Wait()
	for i, body := range kept {
		if len(body) != 200+i || !isZero(body) {
			t.Fatalf("call %d: the body a handler kept reads %x…, want %d zeros", i, body[:min(len(body), 8)], 200+i)
		}
	}
}

// TestPeerWorkersExitOnClose: two bursts of 64 calls in each direction,
// every call held in its handler until its whole burst has arrived. The first
// is served by at most 64 workers a side — one per call served at once — the
// second mostly by the same workers, parked in between (a goroutine per call
// would make 128), and Close leaves none of them behind.
func TestPeerWorkersExitOnClose(t *testing.T) {
	const burst, bursts = 64, 2
	slow := func() *Server {
		var arrived atomic.Int32
		var gates [bursts]chan struct{}
		for i := range gates {
			gates[i] = make(chan struct{})
		}
		s := NewServer()
		s.Handle(opStat, func(Ctx, Request) Response {
			n := arrived.Add(1)
			gate := gates[(n-1)/burst]
			if n%burst == 0 {
				close(gate)
			}
			<-gate
			return Response{}
		})
		return s
	}
	dialed, accepted := pipePair(t, slow(), slow())
	peers := map[string]*Peer{"dialed": dialed, "accepted": accepted}
	for b := 1; b <= bursts; b++ {
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			for _, p := range peers {
				wg.Add(1)
				go func(p *Peer) {
					defer wg.Done()
					resp, err := p.Call(nil, Request{Op: opStat})
					if err != nil {
						t.Error(err)
					}
					resp.Release()
				}(p)
			}
		}
		wg.Wait()
		for name, p := range peers {
			switch n := p.spawned.Load(); {
			case b == 1 && n > burst:
				t.Errorf("%s peer started %d workers for %d calls served at once", name, n, burst)
			case b == bursts && n >= bursts*burst:
				t.Errorf("%s peer started %d workers for %d bursts of %d calls: none was reused", name, n, bursts, burst)
			}
		}
	}
	for name, p := range peers {
		t.Logf("%s peer: %d workers for %d bursts of %d calls", name, p.spawned.Load(), bursts, burst)
	}
	dialed.Close()
	accepted.Close()
	// Returns only once the read loops and every worker have exited; a
	// worker left behind fails the test by its timeout.
	dialed.routines.Wait()
	accepted.routines.Wait()
}

// tapConn records what its owner writes while on is set.
type tapConn struct {
	net.Conn
	mu  sync.Mutex
	on  bool
	got bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.on {
		c.got.Write(p)
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// record turns recording on or off, returning what was recorded so far.
func (c *tapConn) record(on bool) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.on = on
	return append([]byte(nil), c.got.Bytes()...)
}

// tappedPair is pipePair with the dialed side's writes tapped, and both raw
// ends of the pipe returned for injecting bytes: toServer reaches the
// accepted peer's read loop, toClient the dialed one's.
func tappedPair(t *testing.T, clientSrv, serverSrv *Server) (dialed, accepted *Peer, tap *tapConn, toServer, toClient net.Conn) {
	t.Helper()
	cc, sc := net.Pipe()
	tap = &tapConn{Conn: cc}
	var wg sync.WaitGroup
	var acceptErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		accepted, acceptErr = AcceptPeer(sc, keys, serverSrv)
	}()
	dialed, dialErr := DialPeer(tap, "satya", userKey, clientSrv)
	wg.Wait()
	if dialErr != nil || acceptErr != nil {
		t.Fatalf("dial: %v accept: %v", dialErr, acceptErr)
	}
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted, tap, cc, sc
}

// counting returns a server that puts a token on runs for every call it
// serves, whatever its op.
func counting(runs chan struct{}) *Server {
	s := NewServer()
	s.HandleFallback(func(Ctx, Request) Response { runs <- struct{}{}; return Response{} })
	return s
}

// TestPeerReplayedFrameClosesPeer: a call frame captured off the wire and
// sent again verifies — it is the session's own — but is not the far side's
// next record, so the server closes the connection without running the
// handler a second time.
func TestPeerReplayedFrameClosesPeer(t *testing.T) {
	runs := make(chan struct{}, 2)
	dialed, accepted, tap, toServer, _ := tappedPair(t, nil, counting(runs))
	tap.record(true)
	resp, err := dialed.Call(nil, Request{Op: opEcho, Body: []byte("transfer $100")})
	if err != nil {
		t.Fatal(err)
	}
	resp.Release()
	captured := tap.record(false)
	<-runs
	if _, err := toServer.Write(captured); err != nil {
		t.Fatal(err)
	}
	select {
	case <-accepted.Done():
	case <-runs:
		t.Fatal("a replayed call frame was served again")
	}
	accepted.routines.Wait()
	if len(runs) != 0 {
		t.Fatal("a replayed call frame was served again")
	}
	<-dialed.Done() // its server hung up
}

// TestPeerReflectedFrameClosesPeer: a frame a peer sent, reflected back at
// it before its far side has said anything, carries its own nonce prefix and
// closes it; the call it carries is never served by the peer that made it.
func TestPeerReflectedFrameClosesPeer(t *testing.T) {
	runs := make(chan struct{}, 1)
	arrived, stall := make(chan struct{}), make(chan struct{})
	serverSrv := NewServer()
	serverSrv.Handle(opStat, func(Ctx, Request) Response {
		close(arrived)
		<-stall
		return Response{}
	})
	dialed, _, tap, _, toClient := tappedPair(t, counting(runs), serverSrv)
	defer close(stall)
	tap.record(true)
	failed := make(chan error, 1)
	go func() {
		_, err := dialed.Call(nil, Request{Op: opStat})
		failed <- err
	}()
	<-arrived // the whole call frame is on the wire, and nothing has come back
	captured := tap.record(false)
	if _, err := toClient.Write(captured); err != nil {
		t.Fatal(err)
	}
	select {
	case <-dialed.Done():
	case <-runs:
		t.Fatal("a peer served its own reflected call")
	}
	if err := <-failed; !errors.Is(err, ErrClosed) {
		t.Fatalf("the stalled call: err = %v, want ErrClosed", err)
	}
	dialed.routines.Wait()
	if len(runs) != 0 {
		t.Fatal("a peer served its own reflected call")
	}
}
