package rpc

import (
	"errors"
	"testing"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

const (
	opEcho Op = 1
	opStat Op = 2
	opPoke Op = 3 // server calls back the client before replying
)

var userKey = secure.DeriveKey("satya", "pw")

func keys(user string) (secure.Key, bool) {
	if user == "satya" {
		return userKey, true
	}
	return secure.Key{}, false
}

func echoServer() *Server {
	s := NewServer()
	s.Handle(opEcho, func(_ Ctx, req Request) Response {
		return Response{Body: req.Body, Bulk: req.Bulk}
	})
	return s
}

// rig builds a one-cluster network with a server node and a client node.
type rig struct {
	k      *sim.Kernel
	net    *netsim.Network
	server *Endpoint
	client *Endpoint
}

func newRig(t *testing.T, srvCfg EndpointConfig) *rig {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	sn := net.AddNode("server", cl)
	cn := net.AddNode("client", cl)
	if srvCfg.Keys == nil {
		srvCfg.Keys = keys
	}
	return &rig{
		k:      k,
		net:    net,
		server: NewEndpoint(net, sn, srvCfg),
		client: NewEndpoint(net, cn, EndpointConfig{}),
	}
}

func TestSimDialAndCall(t *testing.T) {
	r := newRig(t, EndpointConfig{Server: echoServer()})
	var got Response
	var callErr error
	r.k.Spawn("test", func(p *sim.Proc) {
		conn, err := r.client.Dial(p, r.server.Node().ID, "satya", userKey)
		if err != nil {
			callErr = err
			return
		}
		got, callErr = conn.Call(p, Request{Op: opEcho, Body: []byte("ping"), Bulk: []byte("file-bytes")})
	})
	r.k.Run()
	if callErr != nil {
		t.Fatalf("call: %v", callErr)
	}
	if string(got.Body) != "ping" || string(got.Bulk) != "file-bytes" {
		t.Fatalf("resp = %+v", got)
	}
	if r.server.CallsTotal() != 1 || r.server.CallCounts()[opEcho] != 1 {
		t.Errorf("histogram = %v", r.server.CallCounts())
	}
}

func TestSimTimePassesForTransfer(t *testing.T) {
	r := newRig(t, EndpointConfig{Server: echoServer()})
	var elapsed sim.Duration
	r.k.Spawn("test", func(p *sim.Proc) {
		conn, err := r.client.Dial(p, r.server.Node().ID, "satya", userKey)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		start := p.Now()
		// 1 MB bulk at 10 Mbit/s is ~0.84s of serialization each way.
		if _, err := conn.Call(p, Request{Op: opEcho, Bulk: make([]byte, 1<<20)}); err != nil {
			t.Errorf("call: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	r.k.Run()
	if elapsed < 1500*time.Millisecond {
		t.Fatalf("1MB echo took %v of virtual time, expected >1.5s on 10Mbit", elapsed)
	}
}

func TestSimWrongPasswordNeverConnects(t *testing.T) {
	r := newRig(t, EndpointConfig{Server: echoServer(), CallTimeout: time.Second})
	var dialErr error
	r.k.Spawn("test", func(p *sim.Proc) {
		_, dialErr = r.client.Dial(p, r.server.Node().ID, "satya", secure.DeriveKey("satya", "wrong"))
	})
	r.k.Run()
	if !errors.Is(dialErr, ErrUnreachable) && !errors.Is(dialErr, secure.ErrAuthFailed) {
		t.Fatalf("dial err = %v, want auth failure or timeout", dialErr)
	}
}

func TestSimUnknownUserNeverConnects(t *testing.T) {
	r := newRig(t, EndpointConfig{Server: echoServer(), CallTimeout: time.Second})
	var dialErr error
	r.k.Spawn("test", func(p *sim.Proc) {
		_, dialErr = r.client.Dial(p, r.server.Node().ID, "mallory", secure.DeriveKey("mallory", "x"))
	})
	r.k.Run()
	if dialErr == nil {
		t.Fatal("unknown user connected")
	}
}

// flatBill holds the server's CPU, and its disk if it has one, for the same
// time on every call served; handshakes are free.
type flatBill struct {
	cpu, disk         *sim.Resource
	cpuTime, diskTime time.Duration
}

func (b flatBill) Call(ctx Ctx, _ Request, _ Response) {
	b.cpu.Use(ctx.Proc, b.cpuTime)
	if b.disk != nil {
		b.disk.Use(ctx.Proc, b.diskTime)
	}
}

func (flatBill) Handshake(*sim.Proc) {}

func TestSimCostModelChargesCPU(t *testing.T) {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	sn := net.AddNode("server", cl)
	cn := net.AddNode("client", cl)
	cpu := sim.NewResource(k, "srv-cpu")
	disk := sim.NewResource(k, "srv-disk")
	srv := NewEndpoint(net, sn, EndpointConfig{
		Keys:   keys,
		Server: echoServer(),
		Bill:   flatBill{cpu: cpu, disk: disk, cpuTime: 20 * time.Millisecond, diskTime: 5 * time.Millisecond},
	})
	client := NewEndpoint(net, cn, EndpointConfig{})
	k.Spawn("test", func(p *sim.Proc) {
		conn, err := client.Dial(p, srv.Node().ID, "satya", userKey)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := 0; i < 5; i++ {
			if _, err := conn.Call(p, Request{Op: opEcho}); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	})
	k.Run()
	if got := cpu.BusyTime(); got != 100*time.Millisecond {
		t.Errorf("cpu busy %v, want 100ms", got)
	}
	if got := disk.BusyTime(); got != 25*time.Millisecond {
		t.Errorf("disk busy %v, want 25ms", got)
	}
}

func TestSimConcurrentClientsQueueOnCPU(t *testing.T) {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	sn := net.AddNode("server", cl)
	cpu := sim.NewResource(k, "srv-cpu")
	srv := NewEndpoint(net, sn, EndpointConfig{
		Keys:   keys,
		Server: echoServer(),
		Bill:   flatBill{cpu: cpu, cpuTime: 50 * time.Millisecond},
	})
	finish := make([]sim.Time, 0, 3)
	for i := 0; i < 3; i++ {
		cn := net.AddNode("client", cl)
		ep := NewEndpoint(net, cn, EndpointConfig{})
		k.Spawn("client", func(p *sim.Proc) {
			conn, err := ep.Dial(p, srv.Node().ID, "satya", userKey)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			if _, err := conn.Call(p, Request{Op: opEcho}); err != nil {
				t.Errorf("call: %v", err)
			}
			finish = append(finish, p.Now())
		})
	}
	k.Run()
	if len(finish) != 3 {
		t.Fatalf("only %d clients finished", len(finish))
	}
	// Three 50ms CPU charges must serialize: last completion at least 150ms.
	last := finish[len(finish)-1]
	if last.Sub(0) < 150*time.Millisecond {
		t.Errorf("last finish at %v, CPU contention not modelled", last)
	}
	if cpu.BusyTime() != 150*time.Millisecond {
		t.Errorf("cpu busy %v, want 150ms", cpu.BusyTime())
	}
}

func TestSimCallbackFromServer(t *testing.T) {
	// Client registers a callback handler; the server handler pokes the
	// client over the backchannel before replying — callback breaking.
	clientSrv := NewServer()
	var pokeSeen bool
	clientSrv.Handle(opPoke, func(_ Ctx, _ Request) Response {
		pokeSeen = true
		return Response{Body: []byte("acked")}
	})

	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	sn := net.AddNode("server", cl)
	cn := net.AddNode("client", cl)

	srvLogic := NewServer()
	srv := NewEndpoint(net, sn, EndpointConfig{Keys: keys, Server: srvLogic})
	client := NewEndpoint(net, cn, EndpointConfig{Server: clientSrv})

	srvLogic.Handle(opStat, func(ctx Ctx, _ Request) Response {
		if ctx.Back == nil {
			return Response{Code: 1, Body: []byte("no backchannel")}
		}
		resp, err := ctx.Back.CallBack(ctx.Proc, Request{Op: opPoke})
		if err != nil || string(resp.Body) != "acked" {
			return Response{Code: 2, Body: []byte("callback failed")}
		}
		return Response{Body: []byte("stored")}
	})

	var result Response
	var callErr error
	k.Spawn("client", func(p *sim.Proc) {
		conn, err := client.Dial(p, srv.Node().ID, "satya", userKey)
		if err != nil {
			callErr = err
			return
		}
		result, callErr = conn.Call(p, Request{Op: opStat})
	})
	k.Run()
	if callErr != nil {
		t.Fatalf("call: %v", callErr)
	}
	if !result.OK() || string(result.Body) != "stored" {
		t.Fatalf("resp = %+v", result)
	}
	if !pokeSeen {
		t.Fatal("callback never reached the client")
	}
}

func TestSimPartitionTimesOut(t *testing.T) {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	ca := net.AddCluster("a")
	cb := net.AddCluster("b")
	sn := net.AddNode("server", ca)
	cn := net.AddNode("client", cb)
	srv := NewEndpoint(net, sn, EndpointConfig{Keys: keys, Server: echoServer()})
	client := NewEndpoint(net, cn, EndpointConfig{CallTimeout: 2 * time.Second})

	var errs []error
	k.Spawn("client", func(p *sim.Proc) {
		conn, err := client.Dial(p, srv.Node().ID, "satya", userKey)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		net.Partition(cb)
		_, err = conn.Call(p, Request{Op: opEcho})
		errs = append(errs, err)
		net.Heal(cb)
		_, err = conn.Call(p, Request{Op: opEcho})
		errs = append(errs, err)
	})
	k.Run()
	if len(errs) != 2 {
		t.Fatalf("got %d results", len(errs))
	}
	if !errors.Is(errs[0], ErrUnreachable) {
		t.Errorf("partitioned call err = %v, want ErrUnreachable", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("post-heal call err = %v, want nil", errs[1])
	}
}

// TestSimCountersReachTheSnapshot drives one call through every path the
// cell-wide RPC counters count — a timed-out attempt, a retransmission, a
// duplicate that arrives while the original executes and one answered from
// the reply cache — and checks that a snapshot of the registry both endpoints
// share reports each under its name with what the endpoints counted.
func TestSimCountersReachTheSnapshot(t *testing.T) {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	reg := trace.NewRegistry()
	logic := NewServer()
	logic.Handle(opStat, func(ctx Ctx, _ Request) Response {
		ctx.Proc.Sleep(4 * time.Second)
		return Response{Body: []byte("slow")}
	})
	srv := NewEndpoint(net, net.AddNode("server", cl), EndpointConfig{Keys: keys, Server: logic, Metrics: reg})
	client := NewEndpoint(net, net.AddNode("client", cl), EndpointConfig{
		CallTimeout: time.Second, Metrics: reg,
		Retry: RetryPolicy{Attempts: 3, Backoff: time.Second},
	})

	var resp Response
	var callErr error
	k.Spawn("test", func(p *sim.Proc) {
		conn, err := client.Dial(p, srv.Node().ID, "satya", userKey)
		if err != nil {
			callErr = err
			return
		}
		// Attempt 1 times out at 1 s; attempt 2, sent at 2 s, finds the call
		// executing and times out at 3 s; the reply, sent at 4 s, lands in the
		// 2 s backoff and is dropped; attempt 3, sent at 5 s, is answered from
		// the reply cache.
		resp, callErr = conn.Call(p, Request{Op: opStat})
	})
	k.Run()
	if callErr != nil || string(resp.Body) != "slow" {
		t.Fatalf("call = %q, %v; want the slow reply", resp.Body, callErr)
	}

	got := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	want := map[string]int64{
		trace.MetricRPCCallTimeouts:      2,
		trace.MetricRPCRetries:           client.Retries(),
		trace.MetricRPCDupSuppressed:     1,
		trace.MetricRPCReplyCacheReplays: 1,
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("snapshot %s = %d, want %d", name, got[name], n)
		}
	}
	if client.Retries() != 2 || srv.DupSuppressed() != 2 || srv.CallsTotal() != 1 {
		t.Errorf("retries/dups/served = %d/%d/%d, want 2/2/1", client.Retries(), srv.DupSuppressed(), srv.CallsTotal())
	}
}

func TestSimUnknownOp(t *testing.T) {
	r := newRig(t, EndpointConfig{Server: NewServer()})
	var resp Response
	r.k.Spawn("test", func(p *sim.Proc) {
		conn, err := r.client.Dial(p, r.server.Node().ID, "satya", userKey)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		resp, _ = conn.Call(p, Request{Op: 999})
	})
	r.k.Run()
	if resp.Code != CodeUnknownOp {
		t.Fatalf("code = %d, want CodeUnknownOp", resp.Code)
	}
}

func TestSimCloseStopsCalls(t *testing.T) {
	r := newRig(t, EndpointConfig{Server: echoServer()})
	var err2 error
	r.k.Spawn("test", func(p *sim.Proc) {
		conn, err := r.client.Dial(p, r.server.Node().ID, "satya", userKey)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		conn.Close()
		_, err2 = conn.Call(p, Request{Op: opEcho})
	})
	r.k.Run()
	if !errors.Is(err2, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err2)
	}
}
