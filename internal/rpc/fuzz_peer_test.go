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
// plumbing, the peer's fixed state, a pooled receive buffer) allocates while
// one input is judged.
const fuzzHeapSlack = 1 << 20

// What each input byte of mode 3 plays back at the reader.
const (
	playNext      = iota // the far side's next call
	playReplay           // the last record played, again
	playReflected        // a call sealed by the reader's own Box
	playOtherBox         // a call from the dialing end of another session
	playKinds
)

// FuzzPeerFrames throws arbitrary bytes at the read side of the daemon's
// connection, in the four positions an attacker can stand in:
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
//	3: the network attacker again, playing the session's own records back
//	   at it: they verify, because both directions share the session key.
//	   Each input byte picks the next record the reader hears (playNext and
//	   the rest). The reader must serve exactly the far side's calls up to
//	   the first record that is not the far side's next — a replay, a
//	   reflection of its own, another session's — and close there, so no
//	   call is executed twice. Before the receive sequence was checked, a
//	   replayed call was served again.
func FuzzPeerFrames(f *testing.F) {
	session := secure.DeriveKey("fuzz", "session")
	hugeHeader := make([]byte, wire.FrameHeaderSize)
	wire.PutFrameHeader(hugeHeader, wire.MaxField)
	var hello bytes.Buffer
	wire.WriteFrame(&hello, secure.NewClientHandshake("satya", userKey).Hello())
	validCall := append([]byte{kindCall}, encodeCall(7, wire.TraceHeader{}, Request{Op: opEcho, Body: []byte("b"), Bulk: []byte("bulk")})...)
	validReply := append([]byte{kindReply}, encodeReply(7, 0, Response{Body: []byte("b")})...)
	// A well-formed frame from some other session.
	var sealedCall bytes.Buffer
	another := secure.NewSessionBox(secure.DeriveKey("fuzz", "another session"), secure.Dialer)
	another.SealFrame(&sealedCall, validCall, nil)
	for mode := uint8(0); mode < 3; mode++ {
		for _, seed := range [][]byte{nil, hugeHeader, hello.Bytes(), validCall, validReply, sealedCall.Bytes(), sealedCall.Bytes()[:20]} {
			f.Add(mode, seed)
		}
	}
	for _, seed := range [][]byte{
		{playNext, playReplay},              // a captured call sent again
		{playReflected},                     // the reader's own call, reflected back at it
		{playNext, playNext, playReflected}, // the same, mid-session
		{playOtherBox, playNext},            // another session's call, before the far side's
		{playNext, playNext, playNext},
	} {
		f.Add(uint8(3), seed)
	}

	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		var served atomic.Int32
		srv := NewServer()
		srv.HandleFallback(func(Ctx, Request) Response { served.Add(1); return Response{} })
		// Runs the read side of an authenticated connection, holding box,
		// over input until the input ends, which must leave the peer closed;
		// then waits for every call it dispatched to have been served.
		readAll := func(box *secure.Box, input []byte) {
			p := newPeer(scriptConn{bytes.NewReader(input)}, box, "satya", "satya", srv, true)
			p.readLoop()
			<-p.Done()
			p.routines.Wait()
		}
		var grew, ceiling uint64
		switch mode % 4 {
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
			grew = allocatedBytes(func() { readAll(secure.NewSessionBox(session, secure.Acceptor), data) })
			if served.Load() != 0 {
				t.Fatal("bytes sealed without the session key reached a handler")
			}
		case 2:
			var frame bytes.Buffer
			if err := secure.NewSessionBox(session, secure.Dialer).SealFrame(&frame, data, nil); err != nil {
				t.Fatal(err)
			}
			ceiling = uint64(frame.Len())
			grew = allocatedBytes(func() { readAll(secure.NewSessionBox(session, secure.Acceptor), frame.Bytes()) })
		case 3:
			reader := secure.NewSessionBox(session, secure.Acceptor)
			boxes := [...]*secure.Box{playNext: secure.NewSessionBox(session, secure.Dialer), playReflected: reader, playOtherBox: another}
			var lastBox *secure.Box
			var last []byte
			want, open := int32(0), true
			var stream bytes.Buffer
			for _, b := range data[:min(len(data), 16)] {
				kind := b % playKinds
				box, rec := lastBox, last
				if kind == playReplay {
					if last == nil {
						continue
					}
				} else {
					box = boxes[kind]
					var frame bytes.Buffer
					if err := box.SealFrame(&frame, validCall, nil); err != nil {
						t.Fatal(err)
					}
					rec = frame.Bytes()
				}
				stream.Write(rec)
				// The reader's sequence, modelled: every record a Box seals
				// is played at once, so a fresh one from the session's
				// dialing end is its next, and the first record that breaks
				// the sequence closes the connection.
				switch {
				case !open:
				case kind == playNext:
					want++
				default:
					open = false
				}
				lastBox, last = box, rec
			}
			ceiling = uint64(stream.Len())
			grew = allocatedBytes(func() { readAll(reader, stream.Bytes()) })
			if got := served.Load(); got != want {
				t.Fatalf("input %v: %d calls served, want %d", data, got, want)
			}
		}
		if grew > ceiling+fuzzHeapSlack {
			t.Fatalf("mode %d: %d input bytes cost %d bytes of allocation, ceiling %d", mode%4, len(data), grew, ceiling+fuzzHeapSlack)
		}
	})
}
