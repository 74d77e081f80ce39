package walstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
)

// FuzzWALReplay feeds arbitrary bytes as the checkpoint and log files.
// Recovery must never panic, must be deterministic (two opens of identical
// bytes yield byte-identical reports and volume images), and must never
// resurrect data past the first invalid record — replayed sequence numbers
// are strictly contiguous, so nothing after a gap or tear can surface.
func FuzzWALReplay(f *testing.F) {
	// Seed with real on-disk states so the fuzzer starts from valid framing.
	fsys := store.NewMemFS()
	s, err := Open(fsys)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Recover(); err != nil {
		f.Fatal(err)
	}
	wal, _ := fsys.Bytes(walName)
	f.Add([]byte(nil), append([]byte(nil), wal...))

	rec, _ := hex.DecodeString(goldenRecordHex)
	f.Add([]byte(nil), append([]byte(walMagic), rec...))
	ckpt, _ := hex.DecodeString(goldenCkptHex)
	f.Add(ckpt, append([]byte(walMagic), rec...))
	// Duplicated seqno: the same record twice must end replay at the dup.
	f.Add(ckpt, append(append([]byte(walMagic), rec...), rec...))
	// Truncated tail.
	f.Add([]byte(nil), append([]byte(walMagic), rec[:len(rec)-3]...))
	// A commit of the first form, then one of this form.
	first, _ := hex.DecodeString(goldenFirstFormHex)
	f.Add(ckpt, append(append([]byte(walMagic), first...), frameRecord(10, kindCommit, rec[recPrefix:])...))

	f.Fuzz(func(t *testing.T, ckpt, log []byte) {
		run := func() (string, [][]byte) {
			fsys := store.NewMemFS()
			if len(ckpt) > 0 {
				fsys.SetFile(ckptName, append([]byte(nil), ckpt...))
			}
			fsys.SetFile(walName, append([]byte(nil), log...))
			s, err := Open(fsys)
			if err != nil {
				// Only environment failures may surface here; corrupt input
				// must degrade to a note or a discard, not an open error.
				t.Fatalf("Open: %v", err)
			}
			rec, err := s.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			var imgs [][]byte
			for _, v := range rec.Volumes {
				imgs = append(imgs, v.Serialize())
			}
			// Replay must respect seq contiguity: count can't exceed what a
			// gap-free log could hold.
			if rec.Report.Replayed < 0 || rec.Report.DiscardedBytes < 0 {
				t.Fatalf("negative accounting: %+v", rec.Report)
			}
			return rec.Report.String(), imgs
		}
		repA, imgsA := run()
		repB, imgsB := run()
		if repA != repB {
			t.Fatalf("nondeterministic recovery:\n--- a\n%s--- b\n%s", repA, repB)
		}
		if len(imgsA) != len(imgsB) {
			t.Fatalf("volume counts differ: %d vs %d", len(imgsA), len(imgsB))
		}
		for i := range imgsA {
			if !bytes.Equal(imgsA[i], imgsB[i]) {
				t.Fatalf("volume %d image differs between runs", i)
			}
		}
	})
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder as a
// payload, framed with a valid magic, length and CRC so that they reach the
// volume decoder rather than die at the checksum (FuzzWALReplay covers the
// framing). Decoding must never panic and must allocate no more than a fixed
// multiple of its input: a count read from the file sizes nothing. Whatever
// decodes is a fixed point: the checkpoint built from it decodes, volume for
// volume, to a state that builds the same bytes again. The seeds are
// checkpoints of real volumes, and each decodes to volumes with the
// originals' images.
func FuzzDecodeCheckpoint(f *testing.F) {
	v := filesVol(f, 5, 3, []byte("venice precedes vice"))
	if _, err := v.MakeDir(v.Root(), "d", 0o755, "satya"); err != nil {
		f.Fatal(err)
	}
	if _, err := v.Symlink(v.Root(), "ln", "a"); err != nil {
		f.Fatal(err)
	}
	loc := []proto.LocEntry{{Prefix: "/", Volume: 3, Custodian: "s0"}}
	for _, vols := range [][]*volume.Volume{nil, {newVol(f, 3)}, {newVol(f, 3), v, v.Clone(9, "ro")}} {
		file := encodeCheckpoint(7, store.Checkpoint{Prot: []byte("p"), Loc: loc, Volumes: vols})
		_, cp, err := decodeCheckpoint(file)
		if err != nil || len(cp.Volumes) != len(vols) {
			f.Fatalf("seed of %d volumes decodes to %d: %v", len(vols), len(cp.Volumes), err)
		}
		for i, dv := range cp.Volumes {
			if !bytes.Equal(dv.Serialize(), vols[i].Serialize()) {
				f.Fatalf("seed volume %d does not round-trip", vols[i].ID())
			}
		}
		f.Add(file[ckptPrefix:])
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		file := frameCheckpoint(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seq, cp, _, err := readCheckpoint(file)
		runtime.ReadMemStats(&after)
		if n, ceiling := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(file))+64<<10; n > ceiling {
			t.Fatalf("decoding %d bytes allocated %d, more than %d", len(file), n, ceiling)
		}
		if err != nil {
			return
		}
		again := encodeCheckpoint(seq, cp)
		seq2, cp2, err := decodeCheckpoint(again)
		if err != nil || seq2 != seq || len(cp2.Volumes) != len(cp.Volumes) {
			t.Fatalf("re-encoded checkpoint decodes to seq %d, %d of %d volumes: %v", seq2, len(cp2.Volumes), len(cp.Volumes), err)
		}
		if !bytes.Equal(encodeCheckpoint(seq2, cp2), again) {
			t.Fatal("decoded checkpoint is not a fixed point of encoding")
		}
	})
}

// FuzzReadRecord hammers the frame reader directly: arbitrary buffers and
// offsets must never panic or return a frame extending past the buffer.
func FuzzReadRecord(f *testing.F) {
	rec, _ := hex.DecodeString(goldenRecordHex)
	f.Add(rec, 0)
	f.Add(rec[:5], 0)
	f.Add([]byte{}, 0)
	var big [12]byte
	binary.LittleEndian.PutUint32(big[:], 1<<30)
	f.Add(big[:], 0)

	f.Fuzz(func(t *testing.T, buf []byte, off int) {
		if off < 0 || off > len(buf) {
			return
		}
		_, _, body, next, err := readRecord(buf, off)
		if err != nil {
			return
		}
		if next <= off || next > len(buf) {
			t.Fatalf("frame [%d, %d) escapes buffer of %d", off, next, len(buf))
		}
		if len(body) > next-off {
			t.Fatalf("body longer than frame")
		}
	})
}
