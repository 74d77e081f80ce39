package secure

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"itcfs/internal/wire"
)

// fitsChunk is the largest payload whose whole frame — length prefix, nonce,
// ciphertext, tag — fills SealFrame's chunk buffer exactly.
const fitsChunk = sealChunk - wire.FrameHeaderSize - Overhead

// twinBoxes returns two Boxes that will issue the same nonces, so what one
// seals the other must seal byte for byte.
func twinBoxes() (*Box, *Box) {
	k := DeriveKey("stream", "test")
	a, b := NewBox(k), NewBox(k)
	b.noncePrefix = a.noncePrefix
	return a, b
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
		sealChunk - tagSize, sealChunk - 1, sealChunk, 3*sealChunk + 7, 4 << 20}
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
			// payload, on a Box of its own (the sealers' prefix is its far
			// side's).
			frame, err := wire.ReadFrame(&got.Buffer)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := NewBox(DeriveKey("stream", "test")).OpenNext(frame)
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

// TestOpenNextRejectsBeforeDecrypting flips one bit in the nonce, in every
// chunk of the ciphertext and in the tag, and truncates the record: each must
// fail, and the buffer must come back exactly as it went in — verification
// precedes decryption, so a forgery is never turned into plaintext.
func TestOpenNextRejectsBeforeDecrypting(t *testing.T) {
	k := DeriveKey("u", "p")
	box, reader := NewBox(k), NewBox(k)
	plain := pattern(3*sealChunk + 7)
	sealed := box.Seal(plain)
	cases := map[string]func([]byte) []byte{
		"nonce":                func(b []byte) []byte { b[3] ^= 0x10; return b },
		"tag":                  func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"truncated mid-record": func(b []byte) []byte { return b[:len(b)/2] },
		"truncated by one":     func(b []byte) []byte { return b[:len(b)-1] },
	}
	for chunk := 0; chunk < 4; chunk++ {
		at := nonceSize + chunk*sealChunk + 5
		cases[fmt.Sprintf("ciphertext chunk %d", chunk)] = func(b []byte) []byte { b[at] ^= 0x80; return b }
	}
	for name, tamper := range cases {
		bad := tamper(append([]byte(nil), sealed...))
		handed := append([]byte(nil), bad...)
		if _, err := reader.OpenNext(handed); err != ErrBadSeal {
			t.Fatalf("%s: err = %v, want ErrBadSeal", name, err)
		}
		if !bytes.Equal(handed, bad) {
			t.Fatalf("%s: OpenNext wrote to a record that failed authentication", name)
		}
	}
	if got, err := reader.OpenNext(sealed); err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("untampered record: %v", err)
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
// SealFrame's error, and the blocks of the abandoned record are spent — the
// next record starts past every abandoned one's blocks, never inside them,
// and its keystream is still the one its nonce names.
func TestSealFrameWriteFailure(t *testing.T) {
	k := DeriveKey("u", "p")
	box := NewBox(k)
	payload := pattern(3 * sealChunk)
	limits := []int{0, 10, sealChunk, 2*sealChunk + 100, len(payload) + wire.FrameHeaderSize + Overhead - 1}
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
	_, start, plain := freshOpen(t, k, ok.Bytes()[wire.FrameHeaderSize:])
	if want := uint64(len(limits)) * recordBlocks(len(payload)); start != want {
		t.Fatalf("record after %d failed ones starts at block %d, want %d", len(limits), start, want)
	}
	if string(plain) != "next" {
		t.Fatalf("record after the failed ones decrypts to %q under its nonce", plain)
	}
}

// TestNonceExhaustion: a record whose blocks would run the 64-bit counter
// past its end is refused — SealFrame reports it as an error and writes
// nothing; Seal, the simulator's path, still panics.
func TestNonceExhaustion(t *testing.T) {
	box := NewBox(DeriveKey("u", "p"))
	box.send.next = math.MaxUint64 - recordBlocks(len("last"))
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
// reader's own, a record from a second sealer under the key and a short one
// each fail, leave their bytes as they were and leave the reader where it
// was, so the far side's true next record still passes.
func TestOpenNextKeepsTheSequence(t *testing.T) {
	k := DeriveKey("sequence", "test")
	reader, far, other := NewBox(k), NewBox(k), NewBox(k)
	seal := func(b *Box) []byte { return b.Seal([]byte("record")) }
	// open hands the reader a copy of rec, and checks a refused one is
	// left as it was.
	open := func(rec []byte) bool {
		work := append([]byte(nil), rec...)
		plain, err := reader.OpenNext(work)
		if err != nil && !bytes.Equal(work, rec) {
			t.Fatalf("a refused record's bytes were changed")
		}
		return err == nil && string(plain) == "record"
	}
	first := seal(reader) // the reader's own, reflected before anything else came
	if open(first) {
		t.Fatal("a reflected record opened the far side's sequence")
	}
	r1, r2 := seal(far), seal(far)
	if !open(r1) {
		t.Fatal("the far side's first record was refused")
	}
	skipped := seal(far)
	for name, rec := range map[string][]byte{
		"replay":     r1,
		"gap":        seal(far),
		"reflection": seal(reader),
		"second box": seal(other),
		"short":      r2[:nonceSize-1],
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
	box := NewBox(DeriveKey("u", "p"))
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
