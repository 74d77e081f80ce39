package rpc

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
)

// plane is a fault plane for one test: it does to the next frame from a
// given node what the test armed it to do, once, and passes every other
// frame untouched.
type plane struct {
	from netsim.NodeID
	act  netsim.FaultAction
	hit  int // frames it acted on
}

// arm makes the next frame from node get act.
func (f *plane) arm(node netsim.NodeID, act netsim.FaultAction) { f.from, f.act = node, act }

func (f *plane) Decide(_ sim.Time, src, _ netsim.NodeID, _ int) netsim.FaultAction {
	if src != f.from || f.act == (netsim.FaultAction{}) {
		return netsim.FaultAction{}
	}
	act := f.act
	f.act = netsim.FaultAction{}
	f.hit++
	return act
}

// Corrupt flips one bit in the middle of the frame, where the sealed record
// lies.
func (f *plane) Corrupt(wire []byte) { wire[len(wire)/2] ^= 0x10 }

// faultRig is a server echoing its calls and a client that retries an
// unanswered call after 1 s, on a network whose faults the test arms.
func faultRig(t *testing.T) (*rig, *plane) {
	t.Helper()
	r := newRig(t, EndpointConfig{Server: echoServer()})
	r.client = NewEndpoint(r.net, r.net.AddNode("retrying", r.net.Clusters()[0]), EndpointConfig{
		CallTimeout: time.Second,
		Retry:       RetryPolicy{Attempts: 3, Backoff: time.Second},
	})
	f := &plane{}
	r.net.SetFaultInjector(f)
	return r, f
}

// TestSimCorruptedReplyIsReplayedWhole: a reply damaged in flight fails its
// seal at the client, whose retransmission the server's reply cache answers.
// The replay must be the reply as it was made, not the bytes the fault
// damaged: a cache that kept the very slice it sent would replay the damage
// on every attempt, and the call would time out.
func TestSimCorruptedReplyIsReplayedWhole(t *testing.T) {
	r, f := faultRig(t)
	body, bulk := []byte("status"), seeded(3, 5000)
	var resp Response
	var callErr error
	r.k.Spawn("client", func(p *sim.Proc) {
		conn, err := r.client.Dial(p, r.server.Node().ID, "satya", userKey)
		if err != nil {
			callErr = err
			return
		}
		f.arm(r.server.Node().ID, netsim.FaultAction{Corrupt: true})
		resp, callErr = conn.Call(p, Request{Op: opEcho, Body: body, Bulk: bulk})
	})
	r.k.Run()
	if callErr != nil {
		t.Fatalf("call after one corrupted reply: %v", callErr)
	}
	if f.hit != 1 || r.net.FaultCorrupts() != 1 {
		t.Fatalf("the plane corrupted %d frames (network counted %d), want 1", f.hit, r.net.FaultCorrupts())
	}
	if r.server.DupSuppressed() != 1 {
		t.Fatalf("the reply cache answered %d retransmissions, want 1", r.server.DupSuppressed())
	}
	if !bytes.Equal(resp.Body, body) || !bytes.Equal(resp.Bulk, bulk) {
		t.Fatal("the replayed reply differs from the echo")
	}
}

// opened is a packet of one kind as a watched endpoint received it: its
// bytes on arrival, and whether the endpoint opened it, which a sealed
// packet shows by its bytes changing in place.
type opened struct {
	arrived []byte
	pk      *pkt
}

func (o opened) ok() bool { return !bytes.Equal(o.arrived, o.pk.Data) }

// watch records every packet of kind that ep receives.
func watch(ep *Endpoint, kind uint8) *[]opened {
	var seen []opened
	ep.node.SetSink(func(m netsim.Message) {
		pk, isPkt := m.Payload.(*pkt)
		if isPkt && pk.Kind == kind {
			seen = append(seen, opened{arrived: bytes.Clone(pk.Data), pk: pk})
		}
		ep.deliver(m)
	})
	return &seen
}

// TestSimDuplicatedCallIsSuppressed: both copies of a duplicated call are
// opened where they lie, each in bytes of its own, and the server runs the
// call once: the second copy is suppressed, counted, and answered with a
// replay the client opens too.
func TestSimDuplicatedCallIsSuppressed(t *testing.T) {
	r, f := faultRig(t)
	runs := 0
	r.server.cfg.Server.Handle(opStat, func(_ Ctx, req Request) Response {
		runs++
		return Response{Bulk: req.Bulk}
	})
	calls, replies := watch(r.server, kindCall), watch(r.client, kindReply)
	bulk := seeded(4, 3000)
	var callErr error
	r.k.Spawn("client", func(p *sim.Proc) {
		conn, err := r.client.Dial(p, r.server.Node().ID, "satya", userKey)
		if err != nil {
			callErr = err
			return
		}
		f.arm(r.client.Node().ID, netsim.FaultAction{Duplicate: true})
		_, callErr = conn.Call(p, Request{Op: opStat, Bulk: bulk})
	})
	r.k.Run()
	if callErr != nil {
		t.Fatal(callErr)
	}
	if runs != 1 || r.server.DupSuppressed() != 1 {
		t.Fatalf("the call ran %d times, %d copies suppressed; want 1 and 1", runs, r.server.DupSuppressed())
	}
	if len(*calls) != 2 || len(*replies) != 2 {
		t.Fatalf("%d calls and %d replies arrived, want 2 and 2", len(*calls), len(*replies))
	}
	for i, o := range append(*calls, *replies...) {
		if !o.ok() {
			t.Errorf("packet %d did not open", i)
		}
	}
	if a, b := (*calls)[0], (*calls)[1]; &a.pk.Data[0] == &b.pk.Data[0] || !bytes.Equal(a.arrived, b.arrived) {
		t.Error("the duplicate call does not carry the original's bytes in a buffer of its own")
	}
}

// TestSimDuplicatedReplyOpensTwice: a reply duplicated in flight reaches the
// client twice, in two buffers, and both open where they lie — the second
// re-seats the receive stream at the record the first already took.
func TestSimDuplicatedReplyOpensTwice(t *testing.T) {
	r, f := faultRig(t)
	replies := watch(r.client, kindReply)
	bulk := seeded(5, 3000)
	var callErr error
	r.k.Spawn("client", func(p *sim.Proc) {
		conn, err := r.client.Dial(p, r.server.Node().ID, "satya", userKey)
		if err != nil {
			callErr = err
			return
		}
		f.arm(r.server.Node().ID, netsim.FaultAction{Duplicate: true})
		resp, err := conn.Call(p, Request{Op: opEcho, Bulk: bulk})
		if err == nil && !bytes.Equal(resp.Bulk, bulk) {
			err = errors.New("the echo differs from its call")
		}
		callErr = err
	})
	r.k.Run()
	if callErr != nil {
		t.Fatal(callErr)
	}
	if len(*replies) != 2 {
		t.Fatalf("%d replies arrived, want 2", len(*replies))
	}
	a, b := (*replies)[0], (*replies)[1]
	if !a.ok() || !b.ok() || !bytes.Equal(a.pk.Data, b.pk.Data) {
		t.Fatalf("opened %v and %v, same plaintext %v; want both, the same", a.ok(), b.ok(), bytes.Equal(a.pk.Data, b.pk.Data))
	}
	if a.pk == b.pk || &a.pk.Data[0] == &b.pk.Data[0] {
		t.Fatal("the duplicate reply shares its packet or its bytes with the original")
	}
}

// TestSimCorruptedDuplicateLeavesTheOriginal: a packet's duplicate is bytes
// of its own, so damage to one is not damage to the other, in either order
// of opening.
func TestSimCorruptedDuplicateLeavesTheOriginal(t *testing.T) {
	sealer := secure.NewBox(userKey)
	plain := seeded(6, 1000)
	for _, dupFirst := range []bool{false, true} {
		orig := &pkt{Kind: kindReply, Data: sealer.Seal(plain)}
		orig.AddNetDelay(1, 2, 3)
		dup := orig.Duplicate().(*pkt)
		if dup.queueDelay != 0 || dup.serialDelay != 0 || dup.propDelay != 0 {
			t.Fatal("the duplicate starts with its original's network delays")
		}
		(&plane{}).Corrupt(dup.WirePayload())
		opener := secure.NewBox(userKey)
		if dupFirst {
			if _, err := opener.Open(dup.Data); err == nil {
				t.Fatal("the corrupted duplicate opened")
			}
		}
		got, err := opener.Open(orig.Data)
		if err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("dup first %v: the original after its duplicate's corruption: %v", dupFirst, err)
		}
		if !dupFirst {
			if _, err := opener.Open(dup.Data); err == nil {
				t.Fatal("the corrupted duplicate opened")
			}
		}
	}
}
