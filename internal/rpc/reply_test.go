package rpc

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/wire"
)

// A Reply's Body lies in a pooled encoder lent to the carrier, which gives it
// back (Response.Release) once the reply is sealed, and the next Reply on
// any connection may encode into it. These tests hold both carriers to
// sealing a reply's Body before giving it back and to never reading it after.

const opReply Op = 12 // reply with a Reply of the blob the request's Body names

// blob is a reply body: a length-prefixed payload.
type blob []byte

func (b blob) Encode(e *wire.Encoder) { e.Bytes(b) }

// blobRequest names the blob of n bytes drawn from seed.
func blobRequest(seed int64, n int) Request {
	body := binary.LittleEndian.AppendUint64(nil, uint64(seed))
	return Request{Op: opReply, Body: binary.LittleEndian.AppendUint32(body, uint32(n))}
}

// replyServer answers opReply with a Reply of the named blob.
func replyServer() *Server {
	s := NewServer()
	s.Handle(opReply, func(_ Ctx, req Request) Response {
		seed, n := int64(binary.LittleEndian.Uint64(req.Body)), int(binary.LittleEndian.Uint32(req.Body[8:]))
		return Reply(blob(seeded(seed, n)))
	})
	return s
}

// replySizes cross the first frame tier's edge; the largest is still pooled
// (wire's maxPooled).
var replySizes = []int{0, 16, 100, 1000, 5000, 9000, 40000}

// TestPeerReplyBodiesUnderLoad: eight goroutines on each side of one Peer
// pair call the other side at once, so replies are encoded into pooled
// encoders, sealed and given back on both sides concurrently. Every reply's
// Body must be the blob its request named, byte for byte: a carrier that gave
// a reply's encoder back before sealing it would send whatever a later Reply
// encoded there.
func TestPeerReplyBodiesUnderLoad(t *testing.T) {
	dialed, accepted := pipePair(t, replyServer(), replyServer())
	const callers, rounds = 8, 4
	var wg sync.WaitGroup
	for side, peer := range []*Peer{dialed, accepted} {
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(side, g int, peer *Peer) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for i := range replySizes {
						n := replySizes[(i+g)%len(replySizes)]
						seed := int64(side)<<40 | int64(g)<<32 | int64(r)<<16 | int64(i)
						resp, err := peer.Call(nil, blobRequest(seed, n))
						if err != nil {
							t.Errorf("side %d caller %d call %d: %v", side, g, i, err)
							return
						}
						if !bytes.Equal(resp.Body, wire.Marshal(blob(seeded(seed, n)))) {
							t.Errorf("side %d caller %d call %d (%d B): reply differs from the blob it named", side, g, i, n)
						}
						resp.Release()
					}
				}
			}(side, g, peer)
		}
	}
	wg.Wait()
}

// TestSimReplayCarriesTheOriginalReply: a retransmitted call that the
// server's reply cache answers gets the reply as it was sealed, although the
// encoder its Body lay in was given back and has been written over since.
// The handler takes 4 s against a 1 s deadline (the timeline of
// TestSimCountersReachTheSnapshot): its reply, sealed at 4 s, is lost in the
// caller's backoff, and the third attempt, at 5 s, is answered from the
// cache. In between, at 4.5 s, another call's Reply is made and the first
// reply's Body bytes are written over, as the encoder's next holder would.
func TestSimReplayCarriesTheOriginalReply(t *testing.T) {
	const n = 200
	first, second := seeded(1, n), seeded(2, n)
	var firstBody []byte // where the slow reply's Body lay, captured as it was served
	logic := NewServer()
	logic.Handle(opStat, func(ctx Ctx, _ Request) Response {
		ctx.Proc.Sleep(4 * time.Second)
		resp := Reply(blob(first))
		firstBody = resp.Body
		return resp
	})
	logic.Handle(opEcho, func(Ctx, Request) Response { return Reply(blob(second)) })
	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	reg := trace.NewRegistry()
	srv := NewEndpoint(net, net.AddNode("server", cl), EndpointConfig{
		Keys: keys, Server: logic, Metrics: reg,
	})
	client := NewEndpoint(net, net.AddNode("client", cl), EndpointConfig{
		CallTimeout: time.Second,
		Retry:       RetryPolicy{Attempts: 3, Backoff: time.Second},
	})
	other := NewEndpoint(net, net.AddNode("other", cl), EndpointConfig{})

	var resp Response
	var callErr error
	k.Spawn("slow", func(p *sim.Proc) {
		conn, err := client.Dial(p, srv.Node().ID, "satya", userKey)
		if err != nil {
			callErr = err
			return
		}
		resp, callErr = conn.Call(p, Request{Op: opStat})
	})
	k.Spawn("between", func(p *sim.Proc) {
		conn, err := other.Dial(p, srv.Node().ID, "satya", userKey)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		p.Sleep(sim.Time(4500 * time.Millisecond).Sub(p.Now()))
		if firstBody == nil {
			t.Error("the slow call was not served by 4.5 s")
			return
		}
		r, err := conn.Call(p, Request{Op: opEcho})
		if err != nil || !bytes.Equal(r.Body, wire.Marshal(blob(second))) {
			t.Errorf("the call between: %v, body equal %v", err, bytes.Equal(r.Body, wire.Marshal(blob(second))))
		}
		for i := range firstBody {
			firstBody[i] = scribble[i%len(scribble)]
		}
	})
	k.Run()
	if callErr != nil {
		t.Fatalf("slow call: %v", callErr)
	}
	if n := reg.Counter(trace.MetricRPCReplyCacheReplays).Value(); n != 1 {
		t.Fatalf("the reply cache answered %d retransmissions, want 1", n)
	}
	if !bytes.Equal(resp.Body, wire.Marshal(blob(first))) {
		t.Fatal("the replayed reply is not the one the handler made")
	}
}

// simReplyAllocs is the object count of a status call and its Reply over a
// SimConn in one kernel run, both ends and the kernel's own work included:
// the call's own 8 (the packets, the sealed records, each opened where it
// lies, and the reply cache's copy of the reply's head), and 2 × 13 for a
// caller and a worker process each started afresh, since a run ends the
// processes it leaves idle (sim.TestSpawnAllocs pins one start). The gate is
// on what the server's Reply costs: a carrier that did not give its encoder
// back measures 5 more.
const simReplyAllocs = 34

// simSteadyCallAllocs is the object count of the same call in the steady
// state of a long run, where the worker is an idle process reused and the
// call's attempt a pooled one: the two packets, the two sealed records and
// the reply cache's copy of the head, and nothing else. A carrier that
// started a new worker for each call and gave each attempt a future and a
// deadline closure of its own measured 13; one that does not give its
// encoder back measures 10.
const simSteadyCallAllocs = 5

// statusRig dials a SimConn to a server that answers opStat with a Reply of
// a status record, and returns it with a call that checks the reply.
func statusRig(t *testing.T) (*rig, func(p *sim.Proc)) {
	t.Helper()
	srv := NewServer()
	st := statusReply{vol: 2, vnode: 7, uniq: 1, size: 4096, version: 3, mtime: 1e9, mode: 0o644, owner: "satya"}
	srv.Handle(opStat, func(Ctx, Request) Response { return Reply(st) })
	r := newRig(t, EndpointConfig{Server: srv})
	var conn *SimConn
	r.k.Spawn("dial", func(p *sim.Proc) {
		var err error
		if conn, err = r.client.Dial(p, r.server.Node().ID, "satya", userKey); err != nil {
			t.Error(err)
		}
	})
	r.k.Run()
	if conn == nil {
		t.FailNow()
	}
	args := make([]byte, 16) // a FID-sized argument
	return r, func(p *sim.Proc) {
		resp, err := conn.Call(p, Request{Op: opStat, Body: args})
		if err != nil || len(resp.Body) != 47 {
			t.Errorf("status call: %d B, %v", len(resp.Body), err)
		}
		resp.Release()
	}
}

func TestSimReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r, call := statusRig(t)
	got := testing.AllocsPerRun(200, func() {
		r.k.Spawn("call", call)
		r.k.Run()
	})
	if got > simReplyAllocs {
		t.Fatalf("simulated status call answered with a Reply allocates %.1f objects, pinned at %d", got, simReplyAllocs)
	}
	t.Logf("simulated status call answered with a Reply: %.1f allocs", got)
}

// TestSimSteadyCallAllocs counts a status call placed again and again by one
// process inside one kernel run. The warm-up outlasts the calls' deadline,
// so every attempt the measured calls take is one a fired deadline gave
// back, and every worker is a process that finished an earlier call.
func TestSimSteadyCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const runs = 200
	r, call := statusRig(t)
	got := -1.0
	r.k.Spawn("calls", func(p *sim.Proc) {
		for range runs + 50 {
			call(p)
		}
		p.Sleep(defaultCallTimeout)
		got = testing.AllocsPerRun(runs, func() { call(p) })
	})
	r.k.Run()
	if got > simSteadyCallAllocs || got < 0 {
		t.Fatalf("a steady simulated status call allocates %.1f objects, pinned at %d", got, simSteadyCallAllocs)
	}
	t.Logf("a steady simulated status call: %.1f allocs", got)
}
