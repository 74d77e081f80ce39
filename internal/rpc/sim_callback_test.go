package rpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/sim"
)

// TestSimCallbackIsImpatientCallIsNot pins how one endpoint calls in its two
// directions, now that both run the same routine: a callback on an accepted
// connection to a dead workstation is attempted once and gives up after a
// quarter of the call timeout (a dead cache holder must not stall a mutation),
// while an ordinary call on a connection the same endpoint dialed retries
// under its RetryPolicy for the full timeout each time.
func TestSimCallbackIsImpatientCallIsNot(t *testing.T) {
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
