package walstore

import (
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// frameRecord builds a complete record around an already-encoded body, the
// way put does around the body it encodes in place: the goldens pin the
// production prefix code through it.
func frameRecord(seq uint64, kind uint8, body []byte) []byte {
	var e wire.Encoder
	reserveRecord(&e)
	e.Raw(body)
	finishRecord(e.Buf(), seq, kind)
	return e.Buf()
}

// rawBody is a record body already encoded.
type rawBody []byte

func (b rawBody) Encode(e *wire.Encoder) { e.Raw(b) }

// encodeCheckpoint is buildCheckpoint for snapshots known to be within the
// limits, so the goldens pin the production encoder through it.
func encodeCheckpoint(seq uint64, cp store.Checkpoint) []byte {
	buf, err := buildCheckpoint(seq, cp)
	if err != nil {
		panic(err)
	}
	return buf
}

// recoverCheckpoint opens a store whose only file is the checkpoint file and
// returns what recovery made of it.
func recoverCheckpoint(t *testing.T, file []byte) *store.Recovery {
	t.Helper()
	fsys := store.NewMemFS()
	fsys.SetFile(ckptName, file)
	s, rec := open(t, fsys)
	s.Close()
	return rec
}

// referenceCheckpoint is the checkpoint file as the log's own append path
// writes its records, the reference buildCheckpoint is compared with byte for
// byte (as referenceJournal is for commits): a fresh log takes the location
// database, a BeginVolume of each volume's Serialize image and the
// protection snapshot, and its records are then stamped seq, as every record
// of a checkpoint is.
func referenceCheckpoint(seq uint64, prot []byte, loc []proto.LocEntry, vols []*volume.Volume) []byte {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	fsys := store.NewMemFS()
	s, err := Open(fsys)
	must(err)
	must(s.PutLoc(loc, nil))
	for _, v := range vols {
		must(s.BeginVolume(v.ID(), v.Serialize()))
	}
	must(put(s, kindProtSnapshot, len(prot), rawBody(prot)))
	log, _ := fsys.Bytes(walName)
	file := []byte(walMagic)
	for off := len(walMagic); off < len(log); {
		_, kind, body, next, err := readRecord(log, off)
		must(err)
		file = append(file, frameRecord(seq, kind, body)...)
		off = next
	}
	return file
}
