package secure

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"itcfs/internal/wire"
)

// raceEnabled is set by race_test.go: sync.Pool drops items at random under
// the race detector (to shake out misuse), so exact object counts do not hold.
var raceEnabled bool

// recordSizes are the plaintext lengths the keystream tests seal: either side
// of an AES block, of 256 B (where a record once switched CTR
// implementations), of a frame that fills SealFrame's chunk, several chunks,
// and a 4 MiB file.
var recordSizes = []int{0, 1, 15, 16, 17, 255, 256, 257,
	fitsChunk - 1, fitsChunk, fitsChunk + 1, sealChunk, 3*sealChunk + 7, 4 << 20}

// blockRange is the counter blocks a record took: [start, start+blocks).
type blockRange struct{ start, blocks uint64 }

// freshOpen checks sealed against an independent reference — HMAC-SHA256
// over nonce||ct under k's MAC subkey, then a cipher.NewCTR stream built at
// the record's nonce — and returns its prefix, the blocks its nonce says it
// starts at and its plaintext.
func freshOpen(t *testing.T, k Key, sealed []byte) ([8]byte, uint64, []byte) {
	t.Helper()
	body, tag := sealed[:len(sealed)-tagSize], sealed[len(sealed)-tagSize:]
	m := hmac.New(sha256.New, refSubkey(k, "mac"))
	m.Write(body)
	if !hmac.Equal(m.Sum(nil), tag) {
		t.Fatalf("a %d-byte record's tag is not HMAC(nonce||ct)", len(sealed))
	}
	block, err := aes.NewCipher(refSubkey(k, "encrypt"))
	if err != nil {
		t.Fatal(err)
	}
	nonce, ct := body[:nonceSize], body[nonceSize:]
	plain := make([]byte, len(ct))
	cipher.NewCTR(block, nonce).XORKeyStream(plain, ct)
	return [8]byte(nonce), binary.BigEndian.Uint64(nonce[8:]), plain
}

// refSubkey is the reference for a Box's subkeys: HMAC-SHA256 of purpose
// under k.
func refSubkey(k Key, purpose string) []byte {
	m := hmac.New(sha256.New, k[:])
	m.Write([]byte(purpose))
	return m.Sum(nil)
}

// checkDisjoint fails unless no two ranges share a block.
func checkDisjoint(t *testing.T, ranges []blockRange) {
	t.Helper()
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].start < ranges[j].start })
	for i := 1; i < len(ranges); i++ {
		if prev := ranges[i-1]; prev.start+prev.blocks > ranges[i].start {
			t.Fatalf("records at blocks %d (+%d) and %d overlap: keystream used twice", prev.start, prev.blocks, ranges[i].start)
		}
	}
}

// TestRecordsMatchAFreshStream pins the one-stream-per-direction keystream
// to the stdlib: one Box seals a run of records, alternating Seal and
// SealFrame with the plaintext split between parts, and every record must
// verify and decrypt under a fresh cipher.NewCTR at its own nonce, each
// nonce advancing by exactly len/16+1 blocks — the unused tail of a record's
// last block is thrown away, never used by the next. A second Box opens
// them all in order, in place; a third opens them shuffled and duplicated
// with Open, as the simulator's network delivers them.
func TestRecordsMatchAFreshStream(t *testing.T) {
	k := DeriveKey("keystream", "reference")
	box := NewBox(k)
	var records, plains [][]byte
	var ranges []blockRange
	next := uint64(0)
	for i, n := range recordSizes {
		plain := pattern(n)
		for j, split := range []int{n / 3, n - n/5} {
			var sealed []byte
			if (i+j)%2 == 0 {
				sealed = box.Seal(plain[:split], plain[split:])
			} else {
				var w bytes.Buffer
				if err := box.SealFrame(&w, plain[:split], plain[split:]); err != nil {
					t.Fatal(err)
				}
				frame, err := wire.ReadFrame(&w)
				if err != nil {
					t.Fatal(err)
				}
				sealed = frame
			}
			prefix, start, got := freshOpen(t, k, sealed)
			if !bytes.Equal(got, plain) {
				t.Fatalf("%d bytes, record %d: differs from a fresh stream's decryption at its nonce", n, len(records))
			}
			if prefix != box.noncePrefix || start != next {
				t.Fatalf("%d bytes, record %d: nonce starts at block %d, want %d", n, len(records), start, next)
			}
			next += uint64(n)/aes.BlockSize + 1
			records, plains = append(records, sealed), append(plains, plain)
			ranges = append(ranges, blockRange{start, uint64(n)/aes.BlockSize + 1})
		}
	}
	checkDisjoint(t, ranges)

	reader := NewBox(k)
	for i, sealed := range records {
		work := append([]byte(nil), sealed...)
		got, err := reader.OpenNext(work)
		if err != nil || !bytes.Equal(got, plains[i]) {
			t.Fatalf("record %d: OpenNext = %v, plaintext equal %v", i, err, bytes.Equal(got, plains[i]))
		}
		if len(got) > 0 && &got[0] != &work[nonceSize] {
			t.Fatalf("record %d: OpenNext copied", i)
		}
	}

	order := append(rand.New(rand.NewSource(1)).Perm(len(records)), rand.New(rand.NewSource(2)).Perm(len(records))...)
	opener := NewBox(k)
	for _, i := range order {
		work := append([]byte(nil), records[i]...) // each delivery its own bytes, as the simulator's
		got, err := opener.Open(work)
		if err != nil || !bytes.Equal(got, plains[i]) {
			t.Fatalf("record %d out of order: Open = %v, plaintext equal %v", i, err, bytes.Equal(got, plains[i]))
		}
		if len(got) > 0 && &got[0] != &work[nonceSize] {
			t.Fatalf("record %d: Open copied", i)
		}
	}
}

// TestConcurrentSealsTakeDisjointBlocks: goroutines sealing on one Box at
// once, through both sealers, each get blocks no other record has, the
// blocks together run from 0 without a gap, and every record still matches
// a fresh stream at its nonce. Run under -race.
func TestConcurrentSealsTakeDisjointBlocks(t *testing.T) {
	const sealers, each = 8, 40
	k := DeriveKey("keystream", "concurrent")
	box := NewBox(k)
	records := make([][][]byte, sealers)
	var wg sync.WaitGroup
	for g := range records {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				plain := pattern((g*each + i) * 37 % 700)
				if i%2 == 0 {
					records[g] = append(records[g], box.Seal(plain))
					continue
				}
				var w bytes.Buffer
				if err := box.SealFrame(&w, plain[:len(plain)/2], plain[len(plain)/2:]); err != nil {
					t.Error(err)
					return
				}
				records[g] = append(records[g], w.Bytes()[wire.FrameHeaderSize:])
			}
		}()
	}
	wg.Wait()
	var ranges []blockRange
	total := uint64(0)
	for g := range records {
		for i, sealed := range records[g] {
			_, start, got := freshOpen(t, k, sealed)
			if want := pattern((g*each + i) * 37 % 700); !bytes.Equal(got, want) {
				t.Fatalf("sealer %d record %d: differs from a fresh stream's decryption at its nonce", g, i)
			}
			blocks := uint64(len(got))/aes.BlockSize + 1
			ranges, total = append(ranges, blockRange{start, blocks}), total+blocks
		}
	}
	checkDisjoint(t, ranges)
	if last := ranges[len(ranges)-1]; last.start+last.blocks != total {
		t.Fatalf("records end at block %d, but took %d blocks between them", last.start+last.blocks, total)
	}
}

// TestSealOpenSmallAllocs gates what a record costs at every size, 0 B to
// 4 MiB: SealFrame and the in-order OpenNext allocate nothing — no stream
// object, no tag scratch — and Seal the record it returns, which Open, in
// order, opens where it lies for nothing more.
func TestSealOpenSmallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	k := DeriveKey("u", "p")
	for _, n := range recordSizes {
		plain := pattern(n)
		runs := 50
		if n > sealChunk {
			runs = 5
		}
		sealer, reader := NewBox(k), NewBox(k)
		var w bytes.Buffer
		if got := testing.AllocsPerRun(runs, func() {
			w.Reset()
			if err := sealer.SealFrame(&w, plain[:n/2], plain[n/2:]); err != nil {
				t.Fatal(err)
			}
			if _, err := reader.OpenNext(w.Bytes()[wire.FrameHeaderSize:]); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("SealFrame and OpenNext of %d B allocate %.1f objects, want 0", n, got)
		}
		if got := testing.AllocsPerRun(runs, func() { sink = sealer.Seal(plain) }); got != 1 {
			t.Errorf("Seal of %d B allocates %.1f objects, want the returned record alone", n, got)
		}
		opener := NewBox(k)
		if got := testing.AllocsPerRun(runs, func() {
			var err error
			if sink, err = opener.Open(sealer.Seal(plain)); err != nil {
				t.Fatal(err)
			}
		}); got != 1 {
			t.Errorf("Seal and Open of %d B allocate %.1f objects, want the sealed record alone", n, got)
		}
	}
}

// sink keeps what a measured call returns live.
var sink []byte

// BenchmarkSealOpen is a record's round trip on the real transport's path:
// SealFrame on one Box, then OpenNext in place on a second.
func BenchmarkSealOpen(b *testing.B) {
	k := DeriveKey("u", "p")
	for _, n := range []int{64, 256, 1 << 10, 4 << 10, 64 << 10} {
		plain := pattern(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			sealer, reader := NewBox(k), NewBox(k)
			var w bytes.Buffer
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Reset()
				if err := sealer.SealFrame(&w, nil, plain); err != nil {
					b.Fatal(err)
				}
				if _, err := reader.OpenNext(w.Bytes()[wire.FrameHeaderSize:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newBoxAllocs is what NewBox costs, which every dial and every accept pays:
// the Box, the AES cipher, the send and receive HMACs, and the one HMAC and
// key array both subkeys are derived through. An HMAC built per subkey
// measured 28.
const newBoxAllocs = 20

func TestNewBoxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	k := DeriveKey("u", "p")
	if got := testing.AllocsPerRun(50, func() { NewBox(k) }); got > newBoxAllocs {
		t.Fatalf("NewBox allocates %.0f objects, pinned at %d", got, newBoxAllocs)
	} else {
		t.Logf("NewBox: %.0f objects", got)
	}
}
