package walstore

import (
	"encoding/hex"
	"reflect"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// These goldens pin the on-disk encoding. A mismatch means the WAL format
// changed. A change that the records earlier builds wrote still replay
// under, read as they were meant, may keep the magic: the commit's list of
// directory edits was appended so, and the first form's record stays pinned
// below, decoding as it always did. Any other change bumps the magic
// (ITCWAL01 → ITCWAL02) with the hex here; never let the format drift
// silently under an unchanged magic.

const (
	goldenMagicWAL  = "ITCWAL01"
	goldenMagicCkpt = "ITCCKP01"

	// frameRecord(9, kindCommit, commit{Vol 7, Hdr{2,3,4,5,online},
	// Deletes[1], Meta[{2,"m"}], Data[{2,"d"}], Dirs[{1, Insert[{"n",
	// {7,2,3}, file}], Remove["o"]}]})
	goldenRecordHex = "6f000000c9f08635090000000000000003070000000200000003000000040000000000000005000000000000000101000000010000000100000002000000010000006d" +
		"01000000020000000100000064010000000100000001000000010000006e0700000002000000030000000001000000010000006f"

	// The same commit as the first form of the log wrote it: no edit list.
	goldenFirstFormHex = "48000000107f830709000000000000000307000000020000000300000004000000000000000500000000000000010100000001000000010000000200000001000000" +
		"6d01000000020000000100000064"

	// encodeCheckpoint(4, {Prot "p", Loc [{"/", 1, "s0"}], no volumes})
	goldenCkptHex = "495443434b50303128000000f40ee37b0400000000000000010000007001000000010000002f010000000200000073300000000000000000"
)

func goldenCommit() store.Commit {
	return store.Commit{
		Vol:     7,
		Hdr:     volume.Header{Next: 2, Uniq: 3, Used: 4, Quota: 5, Online: true},
		Deletes: []uint32{1},
		Meta:    []volume.VnodeMeta{{Vnode: 2, Meta: []byte("m")}},
		Data:    []volume.VnodeData{{Vnode: 2, Data: []byte("d")}},
		Dirs: []volume.DirEdit{{Vnode: 1,
			Insert: []proto.DirEntry{{Name: "n", FID: proto.FID{Volume: 7, Vnode: 2, Uniq: 3}, Type: proto.TypeFile}},
			Remove: []string{"o"}}},
	}
}

func TestGoldenMagics(t *testing.T) {
	if walMagic != goldenMagicWAL || ckptMagic != goldenMagicCkpt {
		t.Fatalf("magic drifted: wal=%q ckpt=%q", walMagic, ckptMagic)
	}
}

func TestGoldenRecordEncoding(t *testing.T) {
	var e wire.Encoder
	goldenCommit().Encode(&e)
	rec := frameRecord(9, kindCommit, e.Buf())
	if got := hex.EncodeToString(rec); got != goldenRecordHex {
		t.Fatalf("record encoding drifted:\n got %s\nwant %s", got, goldenRecordHex)
	}

	// The golden bytes must also decode back to the same record, and the
	// first form's to the same record without its edits.
	for _, golden := range []string{goldenRecordHex, goldenFirstFormHex} {
		rec, _ := hex.DecodeString(golden)
		seq, kind, body, next, err := readRecord(rec, 0)
		if err != nil {
			t.Fatalf("readRecord(golden): %v", err)
		}
		if seq != 9 || kind != kindCommit || next != len(rec) {
			t.Fatalf("readRecord(golden) = seq %d kind %d next %d", seq, kind, next)
		}
		d := wire.NewDecoder(body)
		c := store.DecodeCommit(d)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		want := goldenCommit()
		if golden == goldenFirstFormHex {
			want.Dirs = nil
		}
		if !reflect.DeepEqual(c, want) {
			t.Fatalf("golden decode = %+v", c)
		}
	}
}

func TestGoldenCheckpointEncoding(t *testing.T) {
	cp := store.Checkpoint{
		Prot: []byte("p"),
		Loc:  []proto.LocEntry{{Prefix: "/", Volume: 1, Custodian: "s0"}},
	}
	buf := encodeCheckpoint(4, cp)
	if got := hex.EncodeToString(buf); got != goldenCkptHex {
		t.Fatalf("checkpoint encoding drifted:\n got %s\nwant %s", got, goldenCkptHex)
	}
	seq, dec, err := decodeCheckpoint(buf)
	if err != nil {
		t.Fatalf("decodeCheckpoint(golden): %v", err)
	}
	if seq != 4 || string(dec.Prot) != "p" || len(dec.Loc) != 1 || dec.Loc[0].Prefix != "/" {
		t.Fatalf("golden checkpoint decode = seq %d %+v", seq, dec)
	}
}

// TestGoldenCRCCatchesFlips flips one bit of the golden record and requires
// the reader to reject it.
func TestGoldenCRCCatchesFlips(t *testing.T) {
	rec, err := hex.DecodeString(goldenRecordHex)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{8, 12, len(rec) - 1} { // seq, body, last byte
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x40
		if _, _, _, _, rerr := readRecord(mut, 0); rerr == nil {
			t.Fatalf("bit flip at %d went undetected", i)
		}
	}
}
