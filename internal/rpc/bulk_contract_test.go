package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/sim"
)

// A request's Body and Bulk are only read, and only until Call returns
// (rpc.Request, venus.Conn): Venus lends a cache file's own bytes to a store
// for exactly that long and then writes them in place again, and encodes
// every Body into a pooled encoder that it reuses once Call has returned.
// TestRequestBulkIsReadOnlyUntilCallReturns holds both carriers to it. After
// Call returns, the caller scribbles over the Body and the Bulk it sent; the
// server must keep what it received under the name the Body carried, and no
// later call may carry the scribble — whichever way Call returned: a reply,
// an error reply, the deadline, or the connection closing under it. The last
// two leave the handler running with its copy of the request; it keeps that
// copy only after the scribble.

const (
	opKeep  Op = 10 // keep Bulk under the name in Body
	opFetch Op = 11 // reply with what is kept under the name in Body
)

var scribble = []byte("SCRIBBLE")

// The names a keep is made under, each at least as long as the scribble.
const (
	keptName    = "kept-file"
	refusedName = "refused-file" // kept, then answered with an error reply
)

// contractSizes are the Bulk sizes sent: one a Peer receives into a pooled
// frame, and one it hands over, which the handler keeps as it is. A SimConn
// hands both over.
var contractSizes = []int{4 << 10, 300 << 10}

// keeper is a server that keeps what each opKeep call brings, as Vice keeps
// a store's Bulk: the received slice itself when the carrier handed it over
// (Request.Owned), a copy otherwise.
type keeper struct {
	mu        sync.Mutex
	kept      map[string][]byte
	owned     map[string]bool // whether the keep under a name was handed over
	scribbled int             // requests whose Body or Bulk carried the scribble
	hold      func(ctx Ctx)   // runs before a keep when set
	done      chan struct{}   // a token per keep
}

func newKeeper() *keeper {
	return &keeper{kept: map[string][]byte{}, owned: map[string]bool{}, done: make(chan struct{}, 4)}
}

func (k *keeper) server() *Server {
	s := NewServer()
	s.HandleFallback(func(ctx Ctx, req Request) Response {
		k.mu.Lock()
		if bytes.Contains(req.Body, scribble) || bytes.Contains(req.Bulk, scribble) {
			k.scribbled++
		}
		k.mu.Unlock()
		switch req.Op {
		case opKeep:
			if k.hold != nil {
				k.hold(ctx)
			}
			bulk := req.Bulk
			if !req.Owned {
				bulk = bytes.Clone(bulk)
			}
			k.mu.Lock()
			k.kept[string(req.Body)] = bulk
			k.owned[string(req.Body)] = req.Owned
			k.mu.Unlock()
			k.done <- struct{}{}
			if string(req.Body) == refusedName {
				return Response{Code: 1, Body: []byte("refused after keeping")}
			}
			return Response{}
		case opFetch:
			k.mu.Lock()
			defer k.mu.Unlock()
			return Response{Bulk: k.kept[string(req.Body)]}
		}
		return Response{Code: CodeUnknownOp}
	})
	return s
}

// check asserts that what the server kept under name, and what a fetch of
// it over conn returns, is want, that the carrier handed the keep over or
// lent it as owned says, and that no request carried the scribble.
func (k *keeper) check(t *testing.T, p *sim.Proc, conn Conn, name string, want []byte, owned bool) {
	t.Helper()
	k.mu.Lock()
	kept, scribbled, gotOwned := k.kept[name], k.scribbled, k.owned[name]
	k.mu.Unlock()
	if !bytes.Equal(kept, want) {
		t.Errorf("the server kept %d bytes that differ from the %d sent", len(kept), len(want))
	}
	if gotOwned != owned {
		t.Errorf("a %d-byte keep arrived owned = %v, want %v", len(want), gotOwned, owned)
	}
	resp, err := conn.Call(p, Request{Op: opFetch, Body: []byte(name)})
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !bytes.Equal(resp.Bulk, want) {
		t.Errorf("a fetch returned %d bytes that differ from the %d sent", len(resp.Bulk), len(want))
	}
	resp.Release()
	k.mu.Lock()
	scribbled = k.scribbled
	k.mu.Unlock()
	if scribbled != 0 {
		t.Errorf("%d requests carried bytes written after their Call returned", scribbled)
	}
}

// sendAndScribble places the keep call, checks how it returned, and
// scribbles over its Body and its Bulk. It returns the name kept under and
// what was sent.
func sendAndScribble(t *testing.T, p *sim.Proc, conn Conn, how string, size int) (name string, sent []byte) {
	t.Helper()
	bulk := seeded(int64(size), size)
	sent = bytes.Clone(bulk)
	name = keptName
	if how == "error" {
		name = refusedName
	}
	body := []byte(name)
	resp, err := conn.Call(p, Request{Op: opKeep, Body: body, Bulk: bulk})
	switch how {
	case "ok":
		if err != nil || !resp.OK() {
			t.Fatalf("keep: code %d, %v", resp.Code, err)
		}
	case "error":
		if err != nil || resp.OK() {
			t.Fatalf("keep: code %d, %v; want an error reply", resp.Code, err)
		}
	case "deadline":
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("keep: %v, want ErrTimeout", err)
		}
	case "closed":
		// A Peer fails the call at once; a SimConn's runs to its deadline.
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrTimeout) {
			t.Fatalf("keep: %v, want ErrClosed or ErrTimeout", err)
		}
	}
	resp.Release()
	for _, b := range [][]byte{body, bulk} {
		for i := range b {
			b[i] = scribble[i%len(scribble)]
		}
	}
	return name, sent
}

func TestRequestBulkIsReadOnlyUntilCallReturns(t *testing.T) {
	for _, how := range []string{"ok", "error", "deadline", "closed"} {
		for _, size := range contractSizes {
			name := fmt.Sprintf("%s/%dKiB", how, size>>10)
			t.Run("sim/"+name, func(t *testing.T) { simContract(t, how, size) })
			t.Run("peer/"+name, func(t *testing.T) { peerContract(t, how, size) })
		}
	}
}

// simContract runs one case on a SimConn. A held handler sleeps past the
// deadline in virtual time, so the caller has scribbled before it keeps.
func simContract(t *testing.T, how string, size int) {
	const d = 2 * time.Second
	k := newKeeper()
	held := how == "deadline" || how == "closed"
	if held {
		k.hold = func(ctx Ctx) { ctx.Proc.Sleep(2 * d) }
	}
	kern := sim.NewKernel()
	net := netsim.New(kern, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	srv := NewEndpoint(net, net.AddNode("server", cl), EndpointConfig{Keys: keys, Server: k.server()})
	client := NewEndpoint(net, net.AddNode("client", cl), EndpointConfig{CallTimeout: d})
	kern.Spawn("caller", func(p *sim.Proc) {
		conn, err := client.Dial(p, srv.Node().ID, "satya", userKey)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if how == "closed" {
			kern.Spawn("closer", func(q *sim.Proc) { q.Sleep(d / 2); conn.Close() })
		}
		name, want := sendAndScribble(t, p, conn, how, size)
		if held {
			p.Sleep(3 * d) // the handler keeps its copy meanwhile
		}
		if how == "closed" {
			if conn, err = client.Dial(p, srv.Node().ID, "satya", userKey); err != nil {
				t.Errorf("redial: %v", err)
				return
			}
		}
		k.check(t, p, conn, name, want, true)
	})
	kern.Run()
}

// peerContract runs one case on a Peer pair. A held handler waits until the
// caller has scribbled.
func peerContract(t *testing.T, how string, size int) {
	k := newKeeper()
	arrived, release := make(chan struct{}, 1), make(chan struct{})
	held := how == "deadline" || how == "closed"
	if held {
		k.hold = func(Ctx) { arrived <- struct{}{}; <-release }
	}
	srv := k.server()
	dialed, _ := pipePair(t, nil, srv)
	if how == "deadline" {
		dialed.timeout = 100 * time.Millisecond
	}
	if how == "closed" {
		go func() { <-arrived; dialed.Close() }()
	}
	name, want := sendAndScribble(t, nil, dialed, how, size)
	if held {
		close(release)
	}
	<-k.done
	switch how {
	case "deadline":
		dialed.timeout = defaultCallTimeout // no call is in flight
	case "closed":
		dialed, _ = pipePair(t, nil, srv)
	}
	k.check(t, nil, dialed, name, want, size >= handOver)
}
