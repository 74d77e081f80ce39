package secure

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"itcfs/internal/wire"
)

// fitsChunk is the largest payload sealed in one chunk, and so written by
// SealFrame in one Write.
const fitsChunk = sealChunk

// twinBoxes returns two Boxes that will issue the same nonces, so what one
// seals the other must seal byte for byte: the same end of one session,
// built twice.
func twinBoxes() (*Box, *Box) {
	k := DeriveKey("stream", "test")
	return NewSessionBox(k, Dialer), NewSessionBox(k, Dialer)
}

func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

// countingWriter records what it is given and in how many Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestSealFrameMatchesSeal pins wire compatibility: for every size around
// the chunk boundaries and every way of splitting the payload between head
// and bulk, the streamed frame is bytes.Equal to WriteFrame(Seal(head||bulk))
// under the same nonce, and a frame that fits the chunk is one Write.
func TestSealFrameMatchesSeal(t *testing.T) {
	sizes := []int{0, 1, fitsChunk - 1, fitsChunk, fitsChunk + 1,
		2*sealChunk - 1, 2 * sealChunk, 2*sealChunk + 1, 3*sealChunk + 7, 4 << 20}
	for _, size := range sizes {
		payload := pattern(size)
		for _, split := range []int{0, 1, size / 2, size - 1, size} {
			if split < 0 || split > size {
				continue
			}
			ref, streamed := twinBoxes()
			var want bytes.Buffer
			if err := wire.WriteFrame(&want, ref.Seal(payload)); err != nil {
				t.Fatal(err)
			}
			var got countingWriter
			if err := streamed.SealFrame(&got, payload[:split], payload[split:]); err != nil {
				t.Fatalf("size %d split %d: %v", size, split, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("size %d split %d: streamed frame differs from WriteFrame(Seal)", size, split)
			}
			if size <= fitsChunk && got.writes != 1 {
				t.Fatalf("size %d split %d: frame fits the chunk but took %d writes", size, split, got.writes)
			}
			// And the receiver's half: the frame opens in place to the
			// payload, at the session's other end.
			frame, err := wire.ReadFrame(&got.Buffer)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := NewSessionBox(DeriveKey("stream", "test"), Acceptor).OpenNext(frame)
			if err != nil || !bytes.Equal(plain, payload) {
				t.Fatalf("size %d split %d: OpenNext = %v, payload equal %v", size, split, err, bytes.Equal(plain, payload))
			}
			if size > 0 && &plain[0] != &frame[nonceSize] {
				t.Fatalf("size %d: OpenNext copied", size)
			}
		}
	}
}

// TestSealPartsMatchesSealJoined pins what the simulator's packets are
// sealed as: a record sealed from parts is bytes.Equal to the record of the
// parts joined under the same nonce, for sizes on each side of the AES
// block and for every way of cutting the plaintext into two or three parts.
func TestSealPartsMatchesSealJoined(t *testing.T) {
	for _, size := range []int{0, 1, 15, 16, 17, 255, 256, 257, 1000, sealChunk + 3} {
		payload := pattern(size)
		for _, cut := range []int{0, 1, 7, 16, size / 3, size - 1, size} {
			if cut < 0 || cut > size {
				continue
			}
			mid := cut + (size-cut)/2
			ref, parted := twinBoxes()
			want := ref.Seal(payload)
			if got := parted.Seal(payload[:cut], payload[cut:]); !bytes.Equal(got, want) {
				t.Fatalf("size %d cut %d: two parts seal differently from one", size, cut)
			}
			ref, parted = twinBoxes()
			want = ref.Seal(payload)
			if got := parted.Seal(payload[:cut], payload[cut:mid], payload[mid:]); !bytes.Equal(got, want) {
				t.Fatalf("size %d cuts %d, %d: three parts seal differently from one", size, cut, mid)
			}
		}
	}
}

// zero reports whether b is all zeros.
func zero(b []byte) bool { return bytes.Count(b, []byte{0}) == len(b) }

// TestRefusedRecordsAreWiped flips one bit in the first nonce, in every
// chunk's ciphertext, nonce and tag, and truncates the record: each must
// fail under both readers, and the buffer must come back wiped — a record is
// opened chunk by chunk, so the chunks before the one that fails were opened
// in place, and none of that plaintext may stay.
func TestRefusedRecordsAreWiped(t *testing.T) {
	k := DeriveKey("u", "p")
	box, _ := sessionPair(k)
	plain := pattern(3*sealChunk + 7)
	sealed := box.Seal(plain)
	cases := map[string]func([]byte) []byte{
		"first nonce":          func(b []byte) []byte { b[3] ^= 0x10; return b },
		"truncated mid-record": func(b []byte) []byte { return b[:len(b)/2] },
		"truncated by one":     func(b []byte) []byte { return b[:len(b)-1] },
	}
	for chunk := 0; chunk < 4; chunk++ {
		at := chunk * (sealChunk + Overhead)
		end := min(at+sealChunk+Overhead, len(sealed))
		cases[fmt.Sprintf("chunk %d ciphertext", chunk)] = func(b []byte) []byte { b[at+nonceSize+5] ^= 0x80; return b }
		cases[fmt.Sprintf("chunk %d tag", chunk)] = func(b []byte) []byte { b[end-1] ^= 0x01; return b }
		if chunk > 0 {
			cases[fmt.Sprintf("chunk %d nonce", chunk)] = func(b []byte) []byte { b[at+11] ^= 0x01; return b }
		}
	}
	for name, tamper := range cases {
		for reader, open := range openers(k, 0) {
			handed := tamper(append([]byte(nil), sealed...))
			if _, err := open(handed); err != ErrBadSeal {
				t.Fatalf("%s, %s: err = %v, want ErrBadSeal", name, reader, err)
			}
			if !zero(handed) {
				t.Fatalf("%s, %s: a refused record was not wiped", name, reader)
			}
		}
	}
	for reader, open := range openers(k, 0) {
		if got, err := open(append([]byte(nil), sealed...)); err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("untampered record, %s: %v", reader, err)
		}
	}
}

// openers returns both readers of the acceptor's end of k's session, each a
// Box of its own: Open, and OpenNext expecting the dialer's record count.
func openers(k Key, count uint64) map[string]func([]byte) ([]byte, error) {
	_, byOpen := sessionPair(k)
	_, byNext := sessionPair(k)
	byNext.recv.next = count
	return map[string]func([]byte) ([]byte, error){"Open": byOpen.Open, "OpenNext": byNext.OpenNext}
}

// TestCutAndSplicedRecordsFail: a record is a run of chunks, each of which
// opens on its own, so the record format must stop anyone making a new
// record out of genuine chunks. Cut at any chunk boundary (its new last
// chunk is not marked last), cut at its front (its new first chunk is not
// marked first), its chunks reordered or one dropped (the nonces do not
// follow), a chunk spliced in from another record, or a chunk appended: each
// fails under both readers of a session, and under a Box of a long-term key,
// whose nonces are random.
func TestCutAndSplicedRecordsFail(t *testing.T) {
	k := DeriveKey("cut", "splice")
	const size = 2*sealChunk + 100 // three chunks
	at := func(i int) int { return i * (sealChunk + Overhead) }
	type boxes struct {
		seal  *Box
		opens map[string]func([]byte) ([]byte, error)
	}
	session, _ := sessionPair(k)
	longTerm := NewBox(k)
	for kind, b := range map[string]boxes{
		"session":   {session, openers(k, 0)},
		"long-term": {longTerm, map[string]func([]byte) ([]byte, error){"Open": NewBox(k).Open}},
	} {
		rec, other := b.seal.Seal(pattern(size)), b.seal.Seal(pattern(size)) // counts 0 and 1
		join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
		c0, c1, c2 := rec[:at(1)], rec[at(1):at(2)], rec[at(2):]
		o1, o2 := other[at(1):at(2)], other[at(2):]
		cases := map[string][]byte{
			"truncated after chunk 1":      join(c0),
			"truncated after chunk 2":      join(c0, c1),
			"truncated inside chunk 2":     join(c0, c1[:len(c1)/2]),
			"first chunk cut off":          join(c1, c2),
			"middle chunk dropped":         join(c0, c2),
			"chunks 2 and 3 swapped":       join(c0, c2, c1),
			"chunk 2 from another record":  join(c0, o1, c2),
			"chunk 3 from another record":  join(c0, c1, o2),
			"another record's chunk after": join(c0, c1, c2, o2),
			"a chunk repeated":             join(c0, c1, c1, c2),
		}
		for name, forged := range cases {
			for reader, open := range b.opens {
				if _, err := open(bytes.Clone(forged)); err != ErrBadSeal {
					t.Fatalf("%s Box, %s, %s: err = %v, want ErrBadSeal", kind, name, reader, err)
				}
			}
		}
		for reader, open := range b.opens {
			if got, err := open(bytes.Clone(rec)); err != nil || !bytes.Equal(got, pattern(size)) {
				t.Fatalf("%s Box, the record itself, %s: %v", kind, reader, err)
			}
		}
	}
}

// TestReflectedRecordsFail: both directions of a session share its key, so
// a record's tags alone would let an attacker hand one end its own record
// back. Its nonce bears its end's role, and each end refuses its own under
// both readers; the far end opens it.
func TestReflectedRecordsFail(t *testing.T) {
	k := DeriveKey("reflect", "test")
	for _, role := range []Role{Dialer, Acceptor} {
		sealer := NewSessionBox(k, role)
		rec := sealer.Seal([]byte("a call"))
		if _, err := sealer.Open(bytes.Clone(rec)); err != ErrBadSeal {
			t.Fatalf("role %d: Open of its own record: err = %v, want ErrBadSeal", role, err)
		}
		if _, err := sealer.OpenNext(bytes.Clone(rec)); err != ErrBadSeal {
			t.Fatalf("role %d: OpenNext of its own record: err = %v, want ErrBadSeal", role, err)
		}
		if got, err := NewSessionBox(k, Dialer+Acceptor-role).OpenNext(rec); err != nil || string(got) != "a call" {
			t.Fatalf("role %d: the far end: %v", role, err)
		}
	}
}

// failingWriter accepts limit bytes, then fails every Write (a short one
// first, as a socket that dies mid-frame does).
type failingWriter struct {
	got   bytes.Buffer
	limit int
}

var errWriterDead = errors.New("writer dead")

func (w *failingWriter) Write(p []byte) (int, error) {
	room := w.limit - w.got.Len()
	if room >= len(p) {
		return w.got.Write(p)
	}
	w.got.Write(p[:room])
	return room, errWriterDead
}

// TestSealFrameWriteFailure: a Write that fails mid-stream surfaces as
// SealFrame's error, and the count of the abandoned record is spent — the
// next record carries the count after every abandoned one's, never one of
// theirs, and still opens under the reference reader.
func TestSealFrameWriteFailure(t *testing.T) {
	k := DeriveKey("u", "p")
	box, _ := sessionPair(k)
	payload := pattern(3 * sealChunk)
	limits := []int{0, 10, sealChunk, 2*sealChunk + 100, wire.FrameHeaderSize + len(payload) + 3*Overhead - 1}
	for _, limit := range limits {
		w := &failingWriter{limit: limit}
		if err := box.SealFrame(w, nil, payload); !errors.Is(err, errWriterDead) {
			t.Fatalf("limit %d: err = %v, want the writer's error", limit, err)
		}
	}
	var ok bytes.Buffer
	if err := box.SealFrame(&ok, nil, []byte("next")); err != nil {
		t.Fatal(err)
	}
	nonce, plain := refOpen(t, k, ok.Bytes()[wire.FrameHeaderSize:])
	if got := count(nonce); got != uint64(len(limits)) {
		t.Fatalf("record after %d failed ones carries count %d", len(limits), got)
	}
	if string(plain) != "next" {
		t.Fatalf("record after the failed ones opens to %q", plain)
	}
}

// TestNonceExhaustion: once a session Box has sealed the record with the
// last count its nonce can carry, the next is refused — SealFrame reports
// it as an error and writes nothing; Seal, the simulator's path, panics. So
// is a record of more chunks than the chunk index can number.
func TestNonceExhaustion(t *testing.T) {
	box, _ := sessionPair(DeriveKey("u", "p"))
	var nonce [nonceSize]byte
	if err := box.firstNonce(&nonce, maxChunks+1); err != ErrNonceExhausted {
		t.Fatalf("a record of %d chunks: err = %v, want ErrNonceExhausted", maxChunks+1, err)
	}
	box.send.next = math.MaxUint64 - 1
	var w countingWriter
	if err := box.SealFrame(&w, []byte("last"), nil); err != nil {
		t.Fatalf("the last record: %v", err)
	}
	w.Reset()
	w.writes = 0
	for i := 0; i < 3; i++ {
		if err := box.SealFrame(&w, []byte("one too many"), nil); !errors.Is(err, ErrNonceExhausted) {
			t.Fatalf("err = %v, want ErrNonceExhausted", err)
		}
	}
	if w.writes != 0 || w.Len() != 0 {
		t.Fatalf("exhausted SealFrame wrote %d bytes in %d writes", w.Len(), w.writes)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Seal on an exhausted Box did not panic")
		}
	}()
	box.Seal()
}

// TestOpenNextKeepsTheSequence walks one reader through a session's records:
// the far side's, in order, pass; a replay, a gap, a reflection of the
// reader's own, a record of another session and a short one each fail, are
// wiped and leave the reader where it was, so the far side's true next
// record still passes.
func TestOpenNextKeepsTheSequence(t *testing.T) {
	k := DeriveKey("sequence", "test")
	far, reader := sessionPair(k)
	other, _ := sessionPair(DeriveKey("sequence", "another session"))
	seal := func(b *Box) []byte { return b.Seal([]byte("record")) }
	// open hands the reader a copy of rec, and checks a refused one is
	// wiped.
	open := func(rec []byte) bool {
		work := append([]byte(nil), rec...)
		plain, err := reader.OpenNext(work)
		if err != nil && !zero(work) {
			t.Fatalf("a refused record was not wiped")
		}
		return err == nil && string(plain) == "record"
	}
	if open(seal(reader)) {
		t.Fatal("the reader's own record, reflected before anything else came, opened")
	}
	r1, r2 := seal(far), seal(far)
	if !open(r1) {
		t.Fatal("the far side's first record was refused")
	}
	skipped := seal(far)
	for name, rec := range map[string][]byte{
		"replay":          r1,
		"gap":             seal(far),
		"reflection":      seal(reader),
		"another session": seal(other),
		"short":           r2[:Overhead-1],
	} {
		if open(rec) {
			t.Fatalf("%s: accepted", name)
		}
	}
	if !open(r2) {
		t.Fatal("the far side's next record was refused after the rejections")
	}
	if !open(skipped) {
		t.Fatal("the record after that was refused")
	}
}

func BenchmarkSealFrame4M(b *testing.B) {
	box, _ := sessionPair(DeriveKey("u", "p"))
	bulk := pattern(4 << 20)
	b.SetBytes(int64(len(bulk)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := box.SealFrame(discard{}, nil, bulk); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
