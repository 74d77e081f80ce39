package rpc

import (
	"bytes"
	"runtime"
	"testing"

	"itcfs/internal/wire"
)

// allocatedBytes runs fn and returns how many bytes the whole process
// allocated meanwhile (both ends of a Peer pair live in it).
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPeerBulkTransferAllocs is the one-buffer-per-transfer gate: a 4 MiB
// payload echoed through a Peer pair may cost each direction the receive
// buffer and little else. The sender streams Bulk from the caller's slice
// (the echo handler's reply aliases the request's frame), the receiver opens
// the frame where it lies. At the parent commit each direction cost five
// payload-sized buffers.
func TestPeerBulkTransferAllocs(t *testing.T) {
	const size = 4 << 20
	dialed, _ := pipePair(t, nil, echoServer())
	bulk := bytes.Repeat([]byte("itc-vice"), size/8)
	call := func() {
		resp, err := dialed.Call(nil, Request{Op: opEcho, Bulk: bulk})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Bulk, bulk) {
			t.Fatal("echo returned different bytes")
		}
	}
	call() // warm the pools
	const runs = 4
	total := allocatedBytes(func() {
		for i := 0; i < runs; i++ {
			call()
		}
	})
	perDirection := float64(total) / runs / 2
	if limit := 1.1 * size; perDirection > limit {
		t.Fatalf("4 MiB echo allocated %.0f bytes per direction, want <= %.0f (1.1 x payload)", perDirection, limit)
	}
}

// nullCallAllocs is the object count of one 128-byte call and its reply
// through a Peer pair, both sides included, the reply released. The parent
// commit measured 3 with this same test, the reply unreleased (11 before
// that): the two received frames, which the decoded Body aliases, and the
// goroutine that served the call. Both frames are now read into pooled
// buffers and given back — the call's by the worker once the reply is
// sealed, the reply's by Release — and the call is served by a parked worker
// instead of a goroutine of its own. Earlier, sealing and opening a small
// record without a cipher stream object removed four, reading frame headers
// into pooled scratch two, and reusing the caller's outcome channel two.
const nullCallAllocs = 0

func TestPeerNullCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	dialed, _ := pipePair(t, nil, echoServer())
	body := make([]byte, 128)
	got := testing.AllocsPerRun(200, func() {
		resp, err := dialed.Call(nil, Request{Op: opEcho, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	})
	if got > nullCallAllocs {
		t.Fatalf("128 B null call allocates %.1f objects, pinned at %d", got, nullCallAllocs)
	}
	t.Logf("128 B null call: %.1f allocs", got)
}

// statusReply is shaped like a file's status (proto.Status): fixed-width
// fields and an owner's name, 47 bytes encoded.
type statusReply struct {
	vol, vnode, uniq     uint32
	size, version, mtime int64
	mode                 uint16
	owner                string
}

func (s statusReply) Encode(e *wire.Encoder) {
	e.U32(s.vol)
	e.U32(s.vnode)
	e.U32(s.uniq)
	e.I64(s.size)
	e.I64(s.version)
	e.I64(s.mtime)
	e.U16(s.mode)
	e.String(s.owner)
}

// replyAllocs is the object count of a status call and its Reply through a
// Peer pair, both sides included, the reply released: the fixed cost of the
// small call that dominates a server's load (§5.2). Marshalling the reply
// into a fresh slice, as handlers did before Reply, cost two objects: the
// status boxed into a wire.Message and the copy out of the encoder. A carrier
// that did not give a Reply's encoder back would cost the encoder and its
// buffer on every call.
const replyAllocs = 0

func TestPeerReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	srv := NewServer()
	st := statusReply{vol: 2, vnode: 7, uniq: 1, size: 4096, version: 3, mtime: 1e9, mode: 0o644, owner: "satya"}
	srv.Handle(opStat, func(Ctx, Request) Response { return Reply(st) })
	dialed, _ := pipePair(t, nil, srv)
	args := make([]byte, 16) // a FID-sized argument
	got := testing.AllocsPerRun(200, func() {
		resp, err := dialed.Call(nil, Request{Op: opStat, Body: args})
		if err != nil || len(resp.Body) != 47 {
			t.Fatalf("status call: %d B, %v", len(resp.Body), err)
		}
		resp.Release()
	})
	if got > replyAllocs {
		t.Fatalf("status call answered with a Reply allocates %.1f objects, pinned at %d", got, replyAllocs)
	}
	t.Logf("status call answered with a Reply: %.1f allocs", got)
}

// TestPeerPooledEchoAllocs is the gate for the pooled tiers: a 64 KiB echo —
// a call and a reply each in the 72 KiB tier, the reply released — costs
// both sides together at most a tenth of the payload per round trip. At the
// parent commit each direction allocated its whole frame.
func TestPeerPooledEchoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const size = 64 << 10
	dialed, _ := pipePair(t, nil, echoServer())
	bulk := bytes.Repeat([]byte("itc-vice"), size/8)
	call := func() {
		resp, err := dialed.Call(nil, Request{Op: opEcho, Bulk: bulk})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Bulk, bulk) {
			t.Fatal("echo returned different bytes")
		}
		resp.Release()
	}
	call() // warm the pools
	const runs = 50
	perCall := float64(allocatedBytes(func() {
		for i := 0; i < runs; i++ {
			call()
		}
	})) / runs
	if limit := 0.1 * size; perCall > limit {
		t.Fatalf("64 KiB echo allocated %.0f bytes per round trip, want <= %.0f (0.1 x payload)", perCall, limit)
	}
	t.Logf("64 KiB echo: %.0f bytes per round trip", perCall)
}
