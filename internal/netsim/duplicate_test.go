package netsim

import (
	"testing"
	"time"

	"itcfs/internal/sim"
)

// dupEverything duplicates and corrupts every frame.
type dupEverything struct{}

func (dupEverything) Decide(sim.Time, NodeID, NodeID, int) FaultAction {
	return FaultAction{Duplicate: true, Corrupt: true}
}

func (dupEverything) Corrupt(wire []byte) { wire[0] ^= 0xff }

// twin is a payload with wire bytes and delay accounting that gives its
// duplicate a copy of both.
type twin struct {
	data  []byte
	delay time.Duration
}

func (w *twin) WirePayload() []byte { return w.data }

func (w *twin) AddNetDelay(q, s, p time.Duration) { w.delay += q + s + p }

func (w *twin) Duplicate() interface{} { return &twin{data: append([]byte(nil), w.data...)} }

// TestDuplicateGetsAPayloadOfItsOwn: a Duplicable payload's fault-plane
// duplicate is the payload Duplicate returned, made after the corruption, so
// both frames carry the same damaged bytes in buffers of their own and each
// accounts its own delays; any other payload arrives twice as it is.
func TestDuplicateGetsAPayloadOfItsOwn(t *testing.T) {
	k, n, a0, a1, _ := build(t)
	n.SetFaultInjector(dupEverything{})
	var got []interface{}
	a1.SetSink(func(m Message) { got = append(got, m.Payload) })
	orig := &twin{data: []byte{1, 2, 3}}
	n.Send(a0.ID, a1.ID, 100, orig)
	n.Send(a0.ID, a1.ID, 100, "plain")
	k.Run()
	if len(got) != 4 {
		t.Fatalf("%d frames delivered, want 4", len(got))
	}
	dup, ok := got[1].(*twin)
	if got[0] != orig || !ok || dup == orig {
		t.Fatalf("delivered %v then %v: want the original, then a twin of its own", got[0], got[1])
	}
	if &dup.data[0] == &orig.data[0] || dup.data[0] != orig.data[0] || orig.data[0] != 1^0xff {
		t.Fatalf("duplicate's bytes %v, original's %v: want equal, damaged once, apart", dup.data, orig.data)
	}
	// 100 B at 10 Mbit/s is 80 µs on the wire, then 1 ms of propagation; the
	// duplicate also queues behind the original.
	if want := 1080 * time.Microsecond; orig.delay != want || dup.delay <= want {
		t.Fatalf("delays: original %v, duplicate %v; want %v, and more for the duplicate", orig.delay, dup.delay, want)
	}
	if got[2] != "plain" || got[3] != "plain" {
		t.Fatalf("a payload without Duplicate arrived as %v and %v", got[2], got[3])
	}
}
