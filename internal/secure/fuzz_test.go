package secure

import (
	"bytes"
	"testing"
)

// How FuzzOpen makes the record it hands the readers, from one of its
// genuine records (the base), the other record of the same size, a position
// and the fuzzer's bytes.
const (
	fuzzRaw      = iota // the fuzzer's bytes as they are
	fuzzTruncate        // the base cut short at the position
	fuzzDrop            // one of the base's chunks left out
	fuzzSwap            // one of the base's chunks swapped with the next
	fuzzSplice          // one of the base's chunks replaced by the other record's
	fuzzAppend          // the fuzzer's bytes after the base
	fuzzFlip            // one bit of the base flipped
	fuzzModes
)

// fuzzChunk is a whole chunk's length on the wire.
const fuzzChunk = sealChunk + Overhead

// FuzzOpen throws records at both readers of a session's accepting end: the
// fuzzer's own bytes, and genuine records of one, two and three chunks cut,
// spliced, reordered, extended and flipped. Neither reader may panic. A
// reader may return plaintext only for a record that was sealed, byte for
// byte, and then only its plaintext — OpenNext only for the record whose
// count it expects. A refused record gets ErrBadSeal and is wiped.
func FuzzOpen(f *testing.F) {
	k := DeriveKey("fuzz", "open")
	sealer, _ := sessionPair(k)
	plains := [][]byte{pattern(100), pattern(sealChunk + 100), pattern(2*sealChunk + 100)}
	// records holds two records of each size: 2i and 2i+1 seal plains[i].
	var records [][]byte
	for _, p := range plains {
		records = append(records, sealer.Seal(p), sealer.Seal(p))
	}
	genuine := make(map[string]int, len(records))
	for i, rec := range records {
		genuine[string(rec)] = i
	}

	for r, rec := range records {
		f.Add(uint8(r), uint8(fuzzRaw), uint32(0), rec)
		for c := 0; c*fuzzChunk < len(rec); c++ {
			for _, at := range []int{c*fuzzChunk - 1, c * fuzzChunk, c*fuzzChunk + 1, c*fuzzChunk + nonceSize} {
				f.Add(uint8(r), uint8(fuzzTruncate), uint32(at), []byte(nil))
			}
			for _, mode := range []int{fuzzDrop, fuzzSwap, fuzzSplice} {
				f.Add(uint8(r), uint8(mode), uint32(c), []byte(nil))
			}
			f.Add(uint8(r), uint8(fuzzFlip), uint32(8*(c*fuzzChunk+3)), []byte(nil))
		}
		f.Add(uint8(r), uint8(fuzzAppend), uint32(0), records[r^1][:min(fuzzChunk, len(records[r^1]))])
	}

	f.Fuzz(func(t *testing.T, which, mode uint8, at uint32, data []byte) {
		r := int(which) % len(records)
		base, other := records[r], records[r^1]
		rec := forge(int(mode)%fuzzModes, base, other, int(at), data)
		for _, reader := range []string{"Open", "OpenNext"} {
			_, box := sessionPair(k)
			open := box.Open
			if reader == "OpenNext" {
				box.recv.next = uint64(r)
				open = box.OpenNext
			}
			work := bytes.Clone(rec)
			plain, err := open(work)
			if err != nil {
				if err != ErrBadSeal || !zero(work) {
					t.Fatalf("%s refused a record with %v, wiped %v", reader, err, zero(work))
				}
				continue
			}
			i, ok := genuine[string(rec)]
			if !ok {
				t.Fatalf("%s opened %d bytes that were never sealed", reader, len(rec))
			}
			if reader == "OpenNext" && i != r {
				t.Fatalf("OpenNext expecting record %d opened record %d", r, i)
			}
			if !bytes.Equal(plain, plains[i/2]) {
				t.Fatalf("%s opened record %d to a plaintext not its own", reader, i)
			}
		}
	})
}

// forge makes FuzzOpen's record in the given mode.
func forge(mode int, base, other []byte, at int, data []byte) []byte {
	chunks := func(rec []byte) [][]byte {
		var cs [][]byte
		for len(rec) > 0 {
			n := min(len(rec), fuzzChunk)
			cs, rec = append(cs, rec[:n]), rec[n:]
		}
		return cs
	}
	cs := chunks(base)
	c := at % len(cs)
	switch mode {
	case fuzzTruncate:
		return bytes.Clone(base[:at%(len(base)+1)])
	case fuzzDrop:
		cs = append(cs[:c:c], cs[c+1:]...)
	case fuzzSwap:
		if c+1 < len(cs) {
			cs[c], cs[c+1] = cs[c+1], cs[c]
		}
	case fuzzSplice:
		cs[c] = chunks(other)[c]
	case fuzzAppend:
		return append(bytes.Clone(base), data...)
	case fuzzFlip:
		rec := bytes.Clone(base)
		rec[at/8%len(rec)] ^= 1 << (at % 8)
		return rec
	default:
		return bytes.Clone(data)
	}
	return bytes.Join(cs, nil)
}
