package walstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/wire"
)

// On-disk format.
//
// wal.log:
//
//	"ITCWAL01"                                 8-byte magic
//	record*                                    until EOF
//
// record:
//
//	u32 len | u32 crc | payload                len = len(payload), crc = CRC-32C(payload)
//
// payload:
//
//	u64 seq | u8 kind | body                   seq strictly increases by 1
//
// bodies:
//
//	kindBegin:  u32 volume | bytes image       full volume.Serialize image
//	kindDrop:   u32 volume
//	kindCommit: store.Commit encoding
//	kindLoc:    proto.LocInstallArgs encoding
//	kindProt:   prot.Mutation encoding
//
// checkpoint:
//
//	"ITCCKP01" | u32 len | u32 crc | payload
//
// checkpoint payload:
//
//	u64 seq                                    log seqno the snapshot covers
//	bytes prot                                 prot.DB.Snapshot image
//	u32 nloc | LocEntry*                       complete location database
//	u32 nvol | (u32 volume | bytes image)*     every volume
//
// All integers little-endian (the wire package's convention). A record is
// valid only if its full len bytes are present and the CRC matches; the
// first invalid record ends the log — everything after it is a torn tail
// and is discarded. Golden tests in golden_test.go pin these bytes.
const (
	walMagic  = "ITCWAL01"
	ckptMagic = "ITCCKP01"

	walName  = "wal.log"
	ckptName = "checkpoint"

	// maxRecord caps one record's payload; anything larger is corruption.
	maxRecord = 1 << 28
)

// Record kinds.
const (
	kindBegin  uint8 = 1
	kindDrop   uint8 = 2
	kindCommit uint8 = 3
	kindLoc    uint8 = 4
	kindProt   uint8 = 5
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errTorn = errors.New("walstore: torn or corrupt record")

// recPrefix is the bytes of a record ahead of its body: the len/crc header
// and the seq/kind stamp.
const recPrefix = 8 + 9

// newRecord returns an encoder holding a record whose prefix is reserved but
// blank, with room for bodySize more bytes. The caller encodes the body
// straight after it and finishRecord fills the prefix in, so a record —
// which may carry a whole file — is built in the one buffer that is appended
// to the log, not encoded, stamped and framed through three.
func newRecord(bodySize int) wire.Encoder {
	var e wire.Encoder
	e.Grow(recPrefix + bodySize)
	var blank [recPrefix]byte
	e.Raw(blank[:])
	return e
}

// finishRecord completes rec, a newRecord buffer with its body encoded, in
// place: it stamps seq and kind ahead of the body, then writes the header
// over the finished payload.
func finishRecord(rec []byte, seq uint64, kind uint8) {
	payload := rec[8:]
	binary.LittleEndian.PutUint64(payload, seq)
	payload[8] = kind
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(payload, castagnoli))
}

// readRecord parses the record at buf[off:], returning the payload past the
// seq/kind stamp. It returns errTorn for anything malformed: short header,
// oversized length, missing bytes, CRC mismatch.
func readRecord(buf []byte, off int) (seq uint64, kind uint8, body []byte, next int, err error) {
	if off+8 > len(buf) {
		return 0, 0, nil, 0, errTorn
	}
	n := binary.LittleEndian.Uint32(buf[off:])
	crc := binary.LittleEndian.Uint32(buf[off+4:])
	if n > maxRecord || n < 9 {
		return 0, 0, nil, 0, errTorn
	}
	end := off + 8 + int(n)
	if end > len(buf) {
		return 0, 0, nil, 0, errTorn
	}
	payload := buf[off+8 : end]
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, 0, nil, 0, errTorn
	}
	return binary.LittleEndian.Uint64(payload), payload[8], payload[9:], end, nil
}

func encodeCheckpoint(seq uint64, cp store.Checkpoint) []byte {
	var e wire.Encoder
	e.U64(seq)
	e.Bytes(cp.Prot)
	e.ListLen(len(cp.Loc))
	for _, le := range cp.Loc {
		le.Encode(&e)
	}
	e.ListLen(len(cp.Volumes))
	for _, vi := range cp.Volumes {
		e.U32(vi.ID)
		e.Bytes(vi.Image)
	}
	payload := e.Buf()
	out := make([]byte, 0, len(ckptMagic)+8+len(payload))
	out = append(out, ckptMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// decodeCheckpoint parses a checkpoint file. Any malformation is an error;
// the caller treats a bad checkpoint as absent (and says so in the report).
func decodeCheckpoint(buf []byte) (seq uint64, cp store.Checkpoint, err error) {
	if len(buf) < len(ckptMagic)+8 || string(buf[:len(ckptMagic)]) != ckptMagic {
		return 0, cp, fmt.Errorf("walstore: checkpoint: bad magic")
	}
	n := binary.LittleEndian.Uint32(buf[len(ckptMagic):])
	crc := binary.LittleEndian.Uint32(buf[len(ckptMagic)+4:])
	payload := buf[len(ckptMagic)+8:]
	if uint32(len(payload)) != n || n > maxRecord {
		return 0, cp, fmt.Errorf("walstore: checkpoint: bad length")
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, cp, fmt.Errorf("walstore: checkpoint: bad checksum")
	}
	d := wire.NewDecoder(payload)
	seq = d.U64()
	cp.Prot = append([]byte(nil), d.Bytes()...)
	if len(cp.Prot) == 0 {
		cp.Prot = nil
	}
	nl := d.ListLen(1)
	for i := 0; i < nl && d.Err() == nil; i++ {
		cp.Loc = append(cp.Loc, proto.DecodeLocEntry(d))
	}
	nv := d.ListLen(5)
	for i := 0; i < nv && d.Err() == nil; i++ {
		vi := store.VolumeImage{ID: d.U32()}
		vi.Image = append([]byte(nil), d.Bytes()...)
		cp.Volumes = append(cp.Volumes, vi)
	}
	if err := d.Close(); err != nil {
		return 0, store.Checkpoint{}, fmt.Errorf("walstore: checkpoint: %w", err)
	}
	return seq, cp, nil
}
