package rpc

import (
	"sync"
	"testing"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// TestSleepWaitsInTheProcessesTime: the seam's wait is the time Clock reads.
// A simulated process sleeps exactly d of virtual time; a nil process and
// the zero one (a real caller's, a Peer worker's) wait at least d of wall
// time instead of panicking.
func TestSleepWaitsInTheProcessesTime(t *testing.T) {
	const d = 7 * time.Millisecond
	k := sim.NewKernel()
	var slept time.Duration
	k.Spawn("sleeper", func(p *sim.Proc) {
		start := Clock(p)
		Sleep(p, d)
		slept = Clock(p).Sub(start)
	})
	k.Run()
	if slept != d {
		t.Errorf("a simulated process slept %v of virtual time, want exactly %v", slept, d)
	}

	var zero sim.Proc
	for _, c := range []struct {
		name string
		p    *sim.Proc
	}{{"nil", nil}, {"zero", &zero}} {
		start := Clock(c.p)
		Sleep(c.p, d)
		if got := Clock(c.p).Sub(start); got < d {
			t.Errorf("%s process: Sleep(%v) returned after %v of Clock", c.name, d, got)
		}
	}
}

// TestOnServedObservesBothCarriers: the Server's OnServed hook sees every
// call served through it, once, after the handler, on a SimConn (with the
// exact virtual service time the handler took) and on a Peer alike; a call
// dispatched directly is not served and is not observed.
func TestOnServedObservesBothCarriers(t *testing.T) {
	type seen struct {
		op  Op
		svc time.Duration
	}
	var mu sync.Mutex
	var got []seen
	logic := NewServer()
	logic.Handle(opStat, func(ctx Ctx, _ Request) Response {
		if ctx.Proc.Kernel() != nil {
			ctx.Proc.Sleep(3 * time.Second)
		}
		return Response{}
	})
	logic.OnServed(func(ctx Ctx, req Request, _ Response, svc time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, seen{req.Op, svc})
	})

	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	srv := NewEndpoint(net, net.AddNode("server", cl), EndpointConfig{Keys: keys, Server: logic})
	client := NewEndpoint(net, net.AddNode("client", cl), EndpointConfig{})
	k.Spawn("caller", func(p *sim.Proc) {
		conn, err := client.Dial(p, srv.Node().ID, "satya", userKey)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if _, err := conn.Call(p, Request{Op: opStat}); err != nil {
			t.Errorf("simulated call: %v", err)
		}
	})
	k.Run()
	if len(got) != 1 || got[0] != (seen{opStat, 3 * time.Second}) {
		t.Fatalf("simulated call observed as %+v, want one opStat of 3s", got)
	}

	dialed, _ := pipePair(t, nil, logic)
	for i := 0; i < 2; i++ {
		if _, err := dialed.Call(nil, Request{Op: opStat}); err != nil {
			t.Fatalf("Peer call: %v", err)
		}
	}
	logic.Dispatch(Ctx{}, Request{Op: opStat})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[1].op != opStat || got[2].op != opStat {
		t.Fatalf("observed %+v, want the simulated call and the two Peer calls", got)
	}
}

// TestBothCarriersReportToTheObservedRegistry: a machine's instruments are
// named once, on its rpc.Server, and both carriers take them from there. One
// call over a SimConn and one over a Peer, each between a station and a
// server whose Servers are observed with registries of their own: on either
// carrier the station's registry times the call and keeps its timeout count,
// and the server's times the serve.
func TestBothCarriersReportToTheObservedRegistry(t *testing.T) {
	type machines struct{ ws, srv *trace.Registry }
	observed := func() (m machines, ws, srv *Server) {
		m = machines{trace.NewRegistry(), trace.NewRegistry()}
		ws, srv = NewServer(), echoServer()
		ws.Observe("ws", nil, m.ws, nil)
		srv.Observe("server", nil, m.srv, nil)
		return m, ws, srv
	}

	sim1, wsServer, srvServer := observed()
	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	srv := NewEndpoint(net, net.AddNode("server", cl), EndpointConfig{Keys: keys, Server: srvServer})
	client := NewEndpoint(net, net.AddNode("ws", cl), EndpointConfig{Server: wsServer})
	k.Spawn("caller", func(p *sim.Proc) {
		conn, err := client.Dial(p, srv.Node().ID, "satya", userKey)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if _, err := conn.Call(p, Request{Op: opEcho}); err != nil {
			t.Errorf("simulated call: %v", err)
		}
	})
	k.Run()

	peer, wsServer, srvServer := observed()
	dialed, _ := pipePair(t, wsServer, srvServer)
	if _, err := dialed.Call(nil, Request{Op: opEcho}); err != nil {
		t.Fatalf("Peer call: %v", err)
	}

	for _, c := range []struct {
		carrier string
		m       machines
	}{{"SimConn", sim1}, {"Peer", peer}} {
		for _, r := range []struct {
			machine       string
			reg           *trace.Registry
			calls, serves int64
		}{{"station", c.m.ws, 1, 0}, {"server", c.m.srv, 0, 1}} {
			if h := r.reg.FindHistogram(trace.MetricRPCCallLatency); h == nil || h.Count() != r.calls {
				t.Errorf("%s: the %s's %s holds %v, want %d calls", c.carrier, r.machine, trace.MetricRPCCallLatency, h, r.calls)
			}
			if h := r.reg.FindHistogram(trace.MetricRPCServeLatency); h == nil || h.Count() != r.serves {
				t.Errorf("%s: the %s's %s holds %v, want %d serves", c.carrier, r.machine, trace.MetricRPCServeLatency, h, r.serves)
			}
			timeouts := false
			for _, v := range r.reg.Snapshot().Counters {
				timeouts = timeouts || v.Name == trace.MetricRPCCallTimeouts && v.Value == 0
			}
			if !timeouts {
				t.Errorf("%s: the %s's registry keeps no %s at 0", c.carrier, r.machine, trace.MetricRPCCallTimeouts)
			}
		}
	}
}
