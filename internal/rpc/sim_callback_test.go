package rpc

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/sim"
)

// TestSimCallbackIsImpatientCallIsNot pins how one end calls in its two
// directions, now that both carriers run the call core's one routine: a
// callback on an accepted connection to a hung workstation is attempted once
// and gives up after a quarter of the call timeout (a dead cache holder must
// not stall a mutation), while an ordinary call on a connection the same
// side dialed waits the full timeout for each attempt — in the simulator,
// every attempt its RetryPolicy allows; on a Peer, its one. At the parent
// commit both of the Peer's calls waited for ever.
func TestSimCallbackIsImpatientCallIsNot(t *testing.T) {
	t.Run("sim", testSimCallbackIsImpatient)
	t.Run("peer", testPeerCallbackIsImpatient)
}

// testSimCallbackIsImpatient: in virtual time, with both far ends crashed,
// the server's CallBack costs a quarter of its 8 s timeout and its Call three
// attempts of the whole timeout with their backoffs.
func testSimCallbackIsImpatient(t *testing.T) {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	var back Backchannel
	logic := NewServer()
	logic.Handle(opStat, func(ctx Ctx, _ Request) Response {
		back = ctx.Back
		return Response{}
	})
	const timeout = 8 * time.Second
	srv := NewEndpoint(net, net.AddNode("server", cl), EndpointConfig{
		Keys: keys, Server: logic, CallTimeout: timeout,
		Retry: RetryPolicy{Attempts: 3, Backoff: time.Second},
	})
	ws := NewEndpoint(net, net.AddNode("workstation", cl), EndpointConfig{Server: NewServer()})
	peer := NewEndpoint(net, net.AddNode("peer", cl), EndpointConfig{Keys: keys, Server: echoServer()})

	var cbErr, callErr error
	var cbTook, callTook sim.Duration
	var cbRetries, callRetries int64
	k.Spawn("test", func(p *sim.Proc) {
		conn, err := ws.Dial(p, srv.Node().ID, "satya", userKey)
		if err != nil {
			t.Errorf("workstation dial: %v", err)
			return
		}
		if _, err := conn.Call(p, Request{Op: opStat}); err != nil || back == nil {
			t.Errorf("no backchannel: %v", err)
			return
		}
		out, err := srv.Dial(p, peer.Node().ID, "satya", userKey)
		if err != nil {
			t.Errorf("server dial: %v", err)
			return
		}
		ws.Crash()
		peer.Crash()

		start := p.Now()
		_, cbErr = back.CallBack(p, Request{Op: opPoke})
		cbTook, cbRetries = p.Now().Sub(start), srv.Retries()

		start = p.Now()
		_, callErr = out.Call(p, Request{Op: opEcho})
		callTook, callRetries = p.Now().Sub(start), srv.Retries()-cbRetries
	})
	k.Run()

	if !errors.Is(cbErr, ErrTimeout) || !strings.Contains(cbErr.Error(), "callback op 3") {
		t.Errorf("callback err = %v, want a callback timeout", cbErr)
	}
	if cbTook != timeout/4 || cbRetries != 0 {
		t.Errorf("callback took %v with %d retries, want %v and one attempt", cbTook, cbRetries, timeout/4)
	}
	if !errors.Is(callErr, ErrTimeout) || !strings.Contains(callErr.Error(), "op 1 to node") {
		t.Errorf("call err = %v, want a call timeout", callErr)
	}
	// Three attempts of the full timeout, with backoffs of 1 s and 2 s between.
	if want := 3*timeout + 3*time.Second; callTook != want || callRetries != 2 {
		t.Errorf("call took %v with %d retries, want %v and 2", callTook, callRetries, want)
	}
}

// testPeerCallbackIsImpatient: over real sockets, with both far sides'
// handlers hung, the accepted end's CallBack costs one attempt and a quarter
// of the deadline and the dialed end's Call the whole deadline.
func testPeerCallbackIsImpatient(t *testing.T) {
	const timeout = 600 * time.Millisecond
	hung := make(chan struct{})
	var arrived [2]atomic.Int32
	hang := func(side int) *Server {
		s := NewServer()
		s.HandleFallback(func(Ctx, Request) Response { arrived[side].Add(1); <-hung; return Response{} })
		return s
	}
	dialed, accepted := tcpPair(t, hang(0), hang(1))
	t.Cleanup(func() { close(hung) })
	dialed.timeout, accepted.timeout = timeout, timeout

	start := Clock(nil)
	_, cbErr := accepted.CallBack(nil, Request{Op: opPoke})
	cbTook := Clock(nil).Sub(start)
	start = Clock(nil)
	_, callErr := dialed.Call(nil, Request{Op: opEcho})
	callTook := Clock(nil).Sub(start)

	if !errors.Is(cbErr, ErrTimeout) || !strings.Contains(cbErr.Error(), "callback op 3") {
		t.Errorf("callback err = %v, want a callback timeout", cbErr)
	}
	if cbTook < timeout/4 || cbTook >= timeout/2 || arrived[0].Load() != 1 {
		t.Errorf("callback took %v in %d attempts, want one of %v", cbTook, arrived[0].Load(), timeout/4)
	}
	if !errors.Is(callErr, ErrTimeout) || !strings.Contains(callErr.Error(), "op 1 to server") {
		t.Errorf("call err = %v, want a call timeout", callErr)
	}
	if callTook < timeout || callTook >= 2*timeout || arrived[1].Load() != 1 {
		t.Errorf("call took %v in %d attempts, want one of %v", callTook, arrived[1].Load(), timeout)
	}
}
