package walstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"

	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// frameRecord builds a complete record around an already-encoded body, the
// way the store's mutators do around the body they encode in place: the
// goldens pin the production prefix code through it.
func frameRecord(seq uint64, kind uint8, body []byte) []byte {
	e := newRecord(len(body))
	e.Raw(body)
	finishRecord(e.Buf(), seq, kind)
	return e.Buf()
}

// encodeCheckpoint is buildCheckpoint for snapshots known to be within the
// limits, so the goldens pin the production encoder through it.
func encodeCheckpoint(seq uint64, cp store.Checkpoint) []byte {
	buf, err := buildCheckpoint(seq, cp)
	if err != nil {
		panic(err)
	}
	return buf
}

// decodeCheckpoint is readCheckpoint for files whose volumes all decode: a
// volume dropped with a note is an error here. The goldens pin the production
// decoder through it.
func decodeCheckpoint(buf []byte) (uint64, store.Checkpoint, error) {
	seq, cp, notes, err := readCheckpoint(buf)
	if err == nil && len(notes) > 0 {
		err = errors.New(strings.Join(notes, "; "))
	}
	return seq, cp, err
}

// frameCheckpoint puts a valid magic, length and CRC in front of payload, so
// that a test's payload reaches the volume decoder rather than die at the
// checksum.
func frameCheckpoint(payload []byte) []byte {
	file := make([]byte, ckptPrefix, ckptPrefix+len(payload))
	copy(file, ckptMagic)
	binary.LittleEndian.PutUint32(file[len(ckptMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(file[len(ckptMagic)+4:], crc32.Checksum(payload, castagnoli))
	return append(file, payload...)
}

// referenceCheckpoint is the checkpoint file as it was built before the
// store encoded live volumes, kept as the reference buildCheckpoint is
// compared with byte for byte (as referenceCommitOf is for commits): every
// volume serialized to an image of its own, then each image copied into the
// file after its id.
func referenceCheckpoint(seq uint64, prot []byte, loc []proto.LocEntry, vols []*volume.Volume) []byte {
	var e wire.Encoder
	e.Raw(make([]byte, ckptPrefix))
	e.U64(seq)
	e.Bytes(prot)
	e.ListLen(len(loc))
	for _, le := range loc {
		le.Encode(&e)
	}
	e.ListLen(len(vols))
	for _, v := range vols {
		e.U32(v.ID())
		e.Bytes(v.Serialize())
	}
	out := e.Buf()
	payload := out[ckptPrefix:]
	copy(out, ckptMagic)
	binary.LittleEndian.PutUint32(out[len(ckptMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[len(ckptMagic)+4:], crc32.Checksum(payload, castagnoli))
	return out
}
