package walstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
)

// FuzzWALReplay feeds arbitrary bytes as the checkpoint and log files.
// Recovery must never panic, must be deterministic (two opens of identical
// bytes yield byte-identical reports and volume images), must never
// resurrect data past the first invalid record — replayed sequence numbers
// are strictly contiguous, so nothing after a gap or tear can surface — and
// must allocate no more than a fixed multiple of its input: a count read
// from a file sizes nothing. Whatever it recovers is a fixed point: the
// recovered volumes, checkpointed and reopened, come back with the same
// images. A file in an earlier build's format is the one input Open fails
// on, and it leaves both files as they were.
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
	// Checkpoints of real volumes, and a log that goes on from one.
	v := filesVol(f, 5, 3, []byte("venice precedes vice"))
	if _, err := v.MakeDir(v.Root(), "d", 0o755, "satya"); err != nil {
		f.Fatal(err)
	}
	if _, err := v.Symlink(v.Root(), "ln", "a"); err != nil {
		f.Fatal(err)
	}
	loc := []proto.LocEntry{{Prefix: "/", Volume: 3, Custodian: "s0"}}
	for _, vols := range [][]*volume.Volume{{newVol(f, 3)}, {newVol(f, 3), v, v.Clone(9, "ro")}} {
		f.Add(encodeCheckpoint(8, store.Checkpoint{Prot: []byte("p"), Loc: loc, Volumes: vols}), append([]byte(walMagic), rec...))
	}
	// Files in the formats earlier builds wrote.
	f.Add([]byte("ITCCKP01 and then some"), append([]byte(walMagic), rec...))
	f.Add([]byte(nil), append([]byte("ITCWAL01"), rec...))

	f.Fuzz(func(t *testing.T, ckpt, log []byte) {
		disk := func() *store.MemFS {
			fsys := store.NewMemFS()
			if len(ckpt) > 0 {
				fsys.SetFile(ckptName, append([]byte(nil), ckpt...))
			}
			fsys.SetFile(walName, append([]byte(nil), log...))
			return fsys
		}
		for _, magic := range oldFormats {
			if bytes.HasPrefix(ckpt, []byte(magic)) || bytes.HasPrefix(log, []byte(magic)) {
				fsys := disk()
				if _, err := Open(fsys); err == nil || !strings.Contains(err.Error(), magic) {
					t.Fatalf("a file in the %s format opened: %v", magic, err)
				}
				if got, _ := fsys.Bytes(ckptName); len(ckpt) > 0 && !bytes.Equal(got, ckpt) {
					t.Fatal("refusing an old format changed the checkpoint")
				}
				if got, _ := fsys.Bytes(walName); !bytes.Equal(got, log) {
					t.Fatal("refusing an old format changed the log")
				}
				return
			}
		}
		images := func(vols []*volume.Volume) [][]byte {
			var imgs [][]byte
			for _, v := range vols {
				imgs = append(imgs, v.Serialize())
			}
			return imgs
		}
		run := func() (*store.MemFS, *Store, *store.Recovery) {
			fsys := disk()
			var s *Store
			var rec *store.Recovery
			var err error
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if s, err = Open(fsys); err == nil {
				rec, err = s.Recover()
			}
			runtime.ReadMemStats(&after)
			n := after.TotalAlloc - before.TotalAlloc
			if err != nil {
				// Only environment failures may surface here; corrupt input
				// must degrade to a note or a discard, not an open error.
				t.Fatalf("Open: %v", err)
			}
			if ceiling := 64*uint64(len(ckpt)+len(log)) + 64<<10; n > ceiling {
				t.Fatalf("recovering %d bytes allocated %d, more than %d", len(ckpt)+len(log), n, ceiling)
			}
			if rec.Report.Replayed < 0 || rec.Report.DiscardedBytes < 0 {
				t.Fatalf("negative accounting: %+v", rec.Report)
			}
			return fsys, s, rec
		}
		_, _, recA := run()
		fsys, s, recB := run()
		if a, b := recA.Report.String(), recB.Report.String(); a != b {
			t.Fatalf("nondeterministic recovery:\n--- a\n%s--- b\n%s", a, b)
		}
		imgs := images(recA.Volumes)
		if !reflect.DeepEqual(imgs, images(recB.Volumes)) {
			t.Fatal("volume images differ between runs")
		}

		if err := s.Checkpoint(store.Checkpoint{Prot: recB.ProtSnapshot, Volumes: recB.Volumes}); err != nil {
			t.Fatalf("checkpoint of what recovered: %v", err)
		}
		s.Close()
		s, again := open(t, fsys)
		s.Close()
		if !reflect.DeepEqual(images(again.Volumes), imgs) || !bytes.Equal(again.ProtSnapshot, recB.ProtSnapshot) {
			t.Fatalf("what recovered does not survive a checkpoint: notes %q", again.Report.Notes)
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
