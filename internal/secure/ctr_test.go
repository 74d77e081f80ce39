package secure

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"testing"

	"itcfs/internal/wire"
)

// raceEnabled is set by race_test.go: sync.Pool drops items at random under
// the race detector (to shake out misuse), so exact object counts do not hold.
var raceEnabled bool

// smallStream returns st's block-at-a-time stream whatever the length to
// come, so the tests can drive it past smallRecord.
func smallStream(st *recordState, iv []byte) cipher.Stream { return st.ctrStream(iv, 0) }

// TestSmallCTRMatchesStdlib pins the small-record keystream to
// cipher.NewCTR byte for byte: every length from 0 to past twice the bound,
// in one piece and split mid-block the way SealFrame's head and bulk split
// it, and counter blocks whose increment carries across one, two and all
// four of the low bytes the nonce layout leaves to CTR — and across all
// sixteen, which the layout never produces but the stdlib defines.
func TestSmallCTRMatchesStdlib(t *testing.T) {
	block, err := aes.NewCipher(subkey(DeriveKey("ctr", "identity"), "encrypt"))
	if err != nil {
		t.Fatal(err)
	}
	st := &recordState{block: block}
	ivs := map[string][]byte{
		"record start":     {1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 9, 0, 0, 0, 0},
		"carry one byte":   {1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 9, 0, 0, 0, 0xfe},
		"carry two bytes":  {1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 9, 0, 0, 0xff, 0xfd},
		"carry four bytes": {1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 9, 0xff, 0xff, 0xff, 0xfc},
		"carry all":        bytes.Repeat([]byte{0xff}, aes.BlockSize),
	}
	src := pattern(2*smallRecord + 17)
	for name, iv := range ivs {
		for n := 0; n <= len(src); n++ {
			want := make([]byte, n)
			cipher.NewCTR(block, iv).XORKeyStream(want, src[:n])

			got := make([]byte, n)
			smallStream(st, iv).XORKeyStream(got, src[:n])
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %d bytes: keystream differs from cipher.NewCTR", name, n)
			}
			split := n / 3
			s := smallStream(st, iv)
			s.XORKeyStream(got[:split], src[:split])
			s.XORKeyStream(got[split:], src[split:n])
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %d bytes split at %d: keystream differs from cipher.NewCTR", name, n, split)
			}
			// In place, as OpenInPlace decrypts.
			copy(got, src[:n])
			smallStream(st, iv).XORKeyStream(got, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %d bytes in place: keystream differs from cipher.NewCTR", name, n)
			}
		}
	}
}

// TestRoundTripsStraddleSmallRecord: records on both sides of the bound,
// sealed by either sealer and opened by either opener, come back whole — a
// sealer on one side of the bound and an opener on the other would not.
func TestRoundTripsStraddleSmallRecord(t *testing.T) {
	box := NewBox(DeriveKey("u", "p"))
	for _, n := range []int{0, 1, 15, 16, 17, smallRecord - 1, smallRecord, smallRecord + 1, 2*smallRecord + 17} {
		plain := pattern(n)
		if got, err := box.Open(box.Seal(plain)); err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("%d bytes: Seal->Open: %v", n, err)
		}
		if got, err := box.OpenInPlace(box.Seal(plain)); err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("%d bytes: Seal->OpenInPlace: %v", n, err)
		}
		for _, split := range []int{0, n / 2, n} {
			var w bytes.Buffer
			if err := box.SealFrame(&w, plain[:split], plain[split:]); err != nil {
				t.Fatal(err)
			}
			frame, err := wire.ReadFrame(&w)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := box.OpenInPlace(frame); err != nil || !bytes.Equal(got, plain) {
				t.Fatalf("%d bytes split at %d: SealFrame->OpenInPlace: %v", n, split, err)
			}
		}
	}
}

// TestSealOpenSmallAllocs gates what a small record costs: Seal allocates
// the record it returns and OpenInPlace nothing — no stream object, no tag
// scratch. (Both cost one 512-byte cipher.NewCTR stream more at the parent.)
func TestSealOpenSmallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	box := NewBox(DeriveKey("u", "p"))
	plain := pattern(128)
	var sealed []byte
	if got := testing.AllocsPerRun(200, func() { sealed = box.Seal(plain) }); got != 1 {
		t.Fatalf("Seal of 128 B allocates %.1f objects, want the returned record alone", got)
	}
	work := make([]byte, len(sealed))
	if got := testing.AllocsPerRun(200, func() {
		copy(work, sealed)
		if _, err := box.OpenInPlace(work); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("OpenInPlace of 128 B allocates %.1f objects, want 0", got)
	}
}

// BenchmarkCTR regenerates the crossover table beside smallRecord: the
// pooled block-at-a-time keystream against a fresh cipher.NewCTR stream per
// record, at record sizes around the bound.
func BenchmarkCTR(b *testing.B) {
	block, err := aes.NewCipher(subkey(DeriveKey("ctr", "bench"), "encrypt"))
	if err != nil {
		b.Fatal(err)
	}
	st := &recordState{block: block}
	iv := make([]byte, aes.BlockSize)
	for _, n := range []int{64, 128, 256, 512} {
		src, dst := pattern(n), make([]byte, n)
		b.Run(fmt.Sprintf("blockwise/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				smallStream(st, iv).XORKeyStream(dst, src)
			}
		})
		b.Run(fmt.Sprintf("stdlib/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cipher.NewCTR(block, iv).XORKeyStream(dst, src)
			}
		})
	}
}
