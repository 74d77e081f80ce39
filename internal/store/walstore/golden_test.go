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

// These goldens pin the on-disk encoding. A mismatch means the format
// changed. A change under which every record earlier builds wrote still
// replays, read as it was meant, may keep the magic. Any other change bumps
// it (ITCWAL02 → ITCWAL03), adds the old magic to oldFormats and re-records
// the hex here; never let the format drift silently under an unchanged
// magic.

const (
	goldenMagic = "ITCWAL02"

	// frameRecord(9, kindCommit, commit{Vol 7, Hdr{2,3,4,5,online},
	// Deletes[1], Meta[{2,"m"}], Data[{2,"d"}], Dirs[{1, Insert[{"n",
	// {7,2,3}, file}], Remove["o"]}]})
	goldenRecordHex = "6f000000c9f08635090000000000000003070000000200000003000000040000000000000005000000000000000101000000010000000100000002000000010000006d" +
		"01000000020000000100000064010000000100000001000000010000006e0700000002000000030000000001000000010000006f"

	// encodeCheckpoint(4, {Prot "p", Loc [{"/", 1, "s0"}], no volumes})
	goldenCkptHex = "49544357414c3032240000009b301fc904000000000000000401000000010000002f0100000002000000733000000000000000000a000000d380e7d804000000000000000670"
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
	if walMagic != goldenMagic || !reflect.DeepEqual(oldFormats, []string{"ITCWAL01", "ITCCKP01"}) {
		t.Fatalf("magic drifted: %q, refusing %q", walMagic, oldFormats)
	}
}

func TestGoldenRecordEncoding(t *testing.T) {
	var e wire.Encoder
	goldenCommit().Encode(&e)
	rec := frameRecord(9, kindCommit, e.Buf())
	if got := hex.EncodeToString(rec); got != goldenRecordHex {
		t.Fatalf("record encoding drifted:\n got %s\nwant %s", got, goldenRecordHex)
	}

	// The golden bytes must also decode back to the same record.
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
	if !reflect.DeepEqual(c, goldenCommit()) {
		t.Fatalf("golden decode = %+v", c)
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
	rec := recoverCheckpoint(t, buf)
	if rec.Report.CheckpointSeq != 4 || string(rec.ProtSnapshot) != "p" || len(rec.LocOps) != 1 ||
		!reflect.DeepEqual(rec.LocOps[0].Entries, cp.Loc) || len(rec.Report.Notes) != 0 {
		t.Fatalf("golden checkpoint recovers to seq %d, protection %q, location changes %+v, notes %q",
			rec.Report.CheckpointSeq, rec.ProtSnapshot, rec.LocOps, rec.Report.Notes)
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
