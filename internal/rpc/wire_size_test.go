package rpc

import (
	"testing"

	"itcfs/internal/netsim"
	"itcfs/internal/sim"
)

// TestSimulatedWireSizes pins what the simulated network charges for each
// packet of one session (pkt.size), row by row: the four handshake
// messages, a status call and its reply, a 4 KiB store, a 64 KiB fetch and
// the close. Simulated time is charged by these sizes, so every simulated
// timeline, golden and fingerprint rests on them. The pins are the sizes
// the simulator charged when a record was sealed with AES-CTR and
// HMAC-SHA256 (48 bytes a record, whatever its length); a change to the
// seal must leave every row as it is.
func TestSimulatedWireSizes(t *testing.T) {
	const (
		opFetch Op = 10
		opStore Op = 11
	)
	status := make([]byte, 40) // about a proto.Status
	srv := NewServer()
	srv.Handle(opStat, func(Ctx, Request) Response { return Response{Body: status} })
	srv.Handle(opStore, func(Ctx, Request) Response { return Response{Body: status} })
	srv.Handle(opFetch, func(Ctx, Request) Response { return Response{Body: status, Bulk: make([]byte, 64<<10)} })
	r := newRig(t, EndpointConfig{Server: srv})

	type sent struct {
		kind uint8
		size int
	}
	var seen []sent
	for _, ep := range []*Endpoint{r.server, r.client} {
		ep.node.SetSink(func(m netsim.Message) {
			if pk, ok := m.Payload.(*pkt); ok {
				seen = append(seen, sent{pk.Kind, pk.size()})
			}
			ep.deliver(m)
		})
	}
	fid := make([]byte, 16)
	r.k.Spawn("client", func(p *sim.Proc) {
		conn, err := r.client.Dial(p, r.server.Node().ID, "satya", userKey)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for _, req := range []Request{
			{Op: opStat, Body: fid},
			{Op: opStore, Body: fid, Bulk: make([]byte, 4<<10)},
			{Op: opFetch, Body: fid},
		} {
			if _, err := conn.Call(p, req); err != nil {
				t.Errorf("op %d: %v", req.Op, err)
			}
		}
		conn.Close()
	})
	r.k.Run()

	want := []struct {
		name string
		kind uint8
		size int
	}{
		{"hello", kindHello, 173},
		{"challenge", kindChallenge, 176},
		{"proof", kindProof, 160},
		{"session", kindSession, 176},
		{"status call", kindCall, 190},
		{"status reply", kindReply, 206},
		{"4 KiB store call", kindCall, 4286},
		{"4 KiB store reply", kindReply, 206},
		{"64 KiB fetch call", kindCall, 190},
		{"64 KiB fetch reply", kindReply, 65742},
		{"close", kindClose, 96},
	}
	if len(seen) != len(want) {
		t.Fatalf("the session sent %d packets, want %d: %v", len(seen), len(want), seen)
	}
	for i, w := range want {
		if seen[i].kind != w.kind || seen[i].size != w.size {
			t.Errorf("%s: kind %d, %d bytes charged; want kind %d, %d bytes", w.name, seen[i].kind, seen[i].size, w.kind, w.size)
		}
	}
}
