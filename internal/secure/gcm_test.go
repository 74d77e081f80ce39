package secure

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
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

// recordSizes are the plaintext lengths the record tests seal: either side
// of an AES block, of 256 B, of a chunk, of two chunks, several chunks and a
// 4 MiB file.
var recordSizes = []int{0, 1, 15, 16, 17, 255, 256, 257,
	sealChunk - 1, sealChunk, sealChunk + 1, 2*sealChunk - 1, 2 * sealChunk, 2*sealChunk + 1,
	3*sealChunk + 7, 4 << 20}

// sessionPair returns the two ends of a session under k.
func sessionPair(k Key) (dialer, acceptor *Box) {
	return NewSessionBox(k, Dialer), NewSessionBox(k, Acceptor)
}

// refOpen checks sealed against an independent reader of the record format
// — the chunk layout worked out here, a GCM of its own under k, each
// chunk's marks and the nonce after the last — and returns the record's
// first nonce and its plaintext.
func refOpen(t *testing.T, k Key, sealed []byte) ([12]byte, []byte) {
	t.Helper()
	block, err := aes.NewCipher(k[:])
	if err != nil {
		t.Fatal(err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	var plain []byte
	var first, want [12]byte
	for i, rest := 0, sealed; len(rest) > 0; i++ {
		n := min(len(rest), 12+32<<10+16)
		chunk := rest[:n]
		rest = rest[n:]
		nonce := [12]byte(chunk)
		if i == 0 {
			first = nonce
		} else if nonce != want {
			t.Fatalf("chunk %d's nonce %x does not follow the last one's", i, nonce)
		}
		ad := byte(0)
		if i == 0 {
			ad |= 1
		}
		if len(rest) == 0 {
			ad |= 2
		}
		p, err := gcm.Open(nil, nonce[:], chunk[12:], []byte{ad})
		if err != nil {
			t.Fatalf("chunk %d of a %d-byte record does not open under its nonce and marks %d", i, len(sealed), ad)
		}
		plain = append(plain, p...)
		want = nonce
		idx := binary.BigEndian.Uint32(want[8:]) & 0xffffff
		binary.BigEndian.PutUint32(want[8:], binary.BigEndian.Uint32(want[8:])&^0xffffff|(idx+1)&0xffffff)
	}
	return first, plain
}

// count is the record count a session record's first nonce carries.
func count(nonce [12]byte) uint64 { return binary.BigEndian.Uint64(nonce[1:9]) }

// checkDistinct fails unless no two records took the same count.
func checkDistinct(t *testing.T, counts []uint64) {
	t.Helper()
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	for i := 1; i < len(counts); i++ {
		if counts[i-1] == counts[i] {
			t.Fatalf("two records carry count %d: a nonce used twice", counts[i])
		}
	}
}

// TestRecordsMatchAReferenceAEAD pins the record format to the stdlib: one
// session Box seals a run of records, alternating Seal and SealFrame with
// the plaintext split between parts, and every record must open under an
// independent reader (refOpen), its first nonce the Box's role and the
// count of records before it, chunk index 0. The other end opens them all
// in order with OpenNext, in place; a third Box of that end opens them
// shuffled and duplicated with Open, as the simulator's network delivers
// them.
func TestRecordsMatchAReferenceAEAD(t *testing.T) {
	k := DeriveKey("records", "reference")
	box, _ := sessionPair(k)
	var records, plains [][]byte
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
			nonce, got := refOpen(t, k, sealed)
			if !bytes.Equal(got, plain) {
				t.Fatalf("%d bytes, record %d: differs from the reference's opening", n, len(records))
			}
			if Role(nonce[0]) != Dialer || count(nonce) != uint64(len(records)) || nonce[9]|nonce[10]|nonce[11] != 0 {
				t.Fatalf("%d bytes, record %d: first nonce %x, want role %d, count %d, index 0", n, len(records), nonce, Dialer, len(records))
			}
			records, plains = append(records, sealed), append(plains, plain)
		}
	}

	_, reader := sessionPair(k)
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
	_, opener := sessionPair(k)
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

// TestConcurrentSealsTakeDisjointNonces: goroutines sealing on one session
// Box at once, through both sealers, each get a count no other record has,
// the counts together run from 0 without a gap, and every record still
// opens under the reference reader. Run under -race.
func TestConcurrentSealsTakeDisjointNonces(t *testing.T) {
	const sealers, each = 8, 40
	k := DeriveKey("records", "concurrent")
	box, _ := sessionPair(k)
	records := make([][][]byte, sealers)
	var wg sync.WaitGroup
	for g := range records {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				plain := pattern((g*each + i) * 937 % (3 * sealChunk))
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
	var counts []uint64
	for g := range records {
		for i, sealed := range records[g] {
			nonce, got := refOpen(t, k, sealed)
			if want := pattern((g*each + i) * 937 % (3 * sealChunk)); !bytes.Equal(got, want) {
				t.Fatalf("sealer %d record %d: differs from the reference's opening", g, i)
			}
			counts = append(counts, count(nonce))
		}
	}
	checkDistinct(t, counts)
	if last := counts[len(counts)-1]; last != sealers*each-1 {
		t.Fatalf("the last record carries count %d, but %d were sealed", last, sealers*each)
	}
}

// TestSealOpenSmallAllocs gates what a record costs at every size, 0 B to
// 4 MiB, either side of each chunk boundary included: SealFrame and the
// in-order OpenNext allocate nothing, and Seal the record it returns, which
// Open opens where it lies for nothing more.
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
		sealer, reader := sessionPair(k)
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
		_, opener := sessionPair(k)
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
// SealFrame on one end of a session, then OpenNext in place on the other.
func BenchmarkSealOpen(b *testing.B) {
	k := DeriveKey("u", "p")
	for _, n := range []int{64, 256, 1 << 10, 4 << 10, 64 << 10} {
		plain := pattern(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			sealer, reader := sessionPair(k)
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

// newBoxAllocs is what NewBox and NewSessionBox cost, which every dial and
// every accept pays twice (the handshake's Box under the user's key, then
// the session's): the Box and its GCM, which keeps its own copy of the AES
// key schedule (the schedule aes.NewCipher builds is not kept, and stays
// off the heap).
const newBoxAllocs = 2

func TestNewBoxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	k := DeriveKey("u", "p")
	for name, build := range map[string]func(){
		"NewBox":        func() { NewBox(k) },
		"NewSessionBox": func() { NewSessionBox(k, Dialer) },
	} {
		if got := testing.AllocsPerRun(50, build); got > newBoxAllocs {
			t.Fatalf("%s allocates %.0f objects, pinned at %d", name, got, newBoxAllocs)
		} else {
			t.Logf("%s: %.0f objects", name, got)
		}
	}
}
