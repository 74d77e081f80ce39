package rpc

import (
	"bytes"
	"sync/atomic"
	"testing"

	"itcfs/internal/secure"
	"itcfs/internal/wire"
)

// scriptConn is a connection whose far side has already said everything it
// will ever say; what is written to it goes nowhere.
type scriptConn struct{ r *bytes.Reader }

func (c scriptConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (c scriptConn) Close() error                { return nil }

// fuzzHeapSlack absorbs what the rest of the process (the fuzz worker's own
// plumbing, the peer's fixed state) allocates while one input is judged.
const fuzzHeapSlack = 1 << 20

// FuzzPeerFrames throws arbitrary bytes at the read side of the daemon's
// connection, in the three positions an attacker can stand in:
//
//	0: before authentication, at AcceptPeer itself. The handshake must fail
//	   having allocated no more than the input and the 4 KiB frame cap allow.
//	1: on an authenticated connection without the session key (the network
//	   attacker of §3.4). Nothing forged may reach a handler, the loop must
//	   end with the peer closed, and memory is bounded by the bytes actually
//	   sent plus one frame's declared length (at most wire.MaxField).
//	2: with the session key (a hostile but authenticated client): the input
//	   is sealed properly, so it reaches the kind switch and the packet
//	   decoders, which must reject or serve it without panicking.
func FuzzPeerFrames(f *testing.F) {
	session := secure.DeriveKey("fuzz", "session")
	hugeHeader := make([]byte, wire.FrameHeaderSize)
	wire.PutFrameHeader(hugeHeader, wire.MaxField)
	var hello bytes.Buffer
	wire.WriteFrame(&hello, secure.NewClientHandshake("satya", userKey).Hello())
	validCall := append([]byte{kindCall}, encodeCall(7, wire.TraceHeader{}, Request{Op: opEcho, Body: []byte("b"), Bulk: []byte("bulk")})...)
	validReply := append([]byte{kindReply}, encodeReply(7, 0, Response{Body: []byte("b")})...)
	// A well-formed frame from some other session: replaying one of this
	// session's own frames is not forgery, and it would be served.
	var sealedCall bytes.Buffer
	secure.NewBox(secure.DeriveKey("fuzz", "another session")).SealFrame(&sealedCall, validCall, nil)
	for mode := uint8(0); mode < 3; mode++ {
		for _, seed := range [][]byte{nil, hugeHeader, hello.Bytes(), validCall, validReply, sealedCall.Bytes(), sealedCall.Bytes()[:20]} {
			f.Add(mode, seed)
		}
	}

	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		var served atomic.Int32
		srv := NewServer()
		srv.HandleFallback(func(Ctx, Request) Response { served.Add(1); return Response{} })
		// Runs the read side of an authenticated connection over input until
		// the input ends, which must leave the peer closed.
		readAll := func(input []byte) {
			p := newPeer(scriptConn{bytes.NewReader(input)}, secure.NewBox(session), "satya", "satya", srv)
			p.readLoop()
			<-p.Done()
		}
		var grew, ceiling uint64
		switch mode % 3 {
		case 0:
			ceiling = uint64(len(data))
			grew = allocatedBytes(func() {
				if p, err := AcceptPeer(scriptConn{bytes.NewReader(data)}, keys, srv); err == nil {
					p.Close()
					t.Fatal("handshake completed without the user's key")
				}
			})
		case 1:
			ceiling = uint64(len(data)) + wire.MaxField
			grew = allocatedBytes(func() { readAll(data) })
			if served.Load() != 0 {
				t.Fatal("bytes sealed without the session key reached a handler")
			}
		case 2:
			var frame bytes.Buffer
			if err := secure.NewBox(session).SealFrame(&frame, data, nil); err != nil {
				t.Fatal(err)
			}
			ceiling = uint64(frame.Len())
			grew = allocatedBytes(func() { readAll(frame.Bytes()) })
		}
		if grew > ceiling+fuzzHeapSlack {
			t.Fatalf("mode %d: %d input bytes cost %d bytes of allocation, ceiling %d", mode%3, len(data), grew, ceiling+fuzzHeapSlack)
		}
	})
}
