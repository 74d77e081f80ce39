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

// On-disk format. wal.log and checkpoint are both logs: one magic, one
// record framing, one reader (readRecord) and one applier (applyRecord).
//
// file:
//
//	"ITCWAL02"                                 8-byte magic
//	record*                                    until EOF
//
// record:
//
//	u32 len | u32 crc | payload                len = len(payload), crc = CRC-32C(payload)
//
// payload:
//
//	u64 seq | u8 kind | body
//
// bodies:
//
//	kindBegin:        u32 volume | bytes image full volume.Serialize image
//	kindDrop:         u32 volume
//	kindCommit:       store.Commit encoding    see below
//	kindLoc:          proto.LocInstallArgs encoding
//	kindProt:         prot.Mutation encoding
//	kindProtSnapshot: image                    prot.DB.Snapshot, the rest of the payload
//
// commit (store.Commit):
//
//	u32 volume | header                        volume.Header
//	u32 n | u32 vnode*                         deleted
//	u32 n | (u32 vnode | bytes meta)*          u32 parent | status | ACL
//	u32 n | (u32 vnode | bytes data)*          file contents
//	u32 n | (u32 vnode | entries | u32 m | bytes name*)*
//	                                           directory edits: the entries
//	                                           now under the names touched,
//	                                           then the names now unused
//
// A commit carries no directory's whole entry table; only kindBegin does.
//
// In wal.log, seq strictly increases by 1 from record to record. The first
// invalid record ends the log: everything after it is a torn tail and is
// truncated away.
//
// checkpoint: the records that rebuild the state at log seqno S, every one
// stamped S:
//
//	kindLoc                                    the whole location database
//	kindBegin*                                 every volume, ascending by ID
//	kindProtSnapshot                           the protection database; it
//	                                           ends the checkpoint
//
// A checkpoint is used whole or not at all: a record that does not read
// back, a stamp other than the first record's, or a file that does not end
// at its protection snapshot makes recovery ignore it, with a note.
//
// All integers little-endian (the wire package's convention). A record is
// valid only if its full len bytes are present and the CRC matches. Earlier
// builds wrote ITCWAL01 logs, whose commits could lack the edit list, and
// ITCCKP01 checkpoints, one framed blob each; Open refuses both
// (oldFormats). Golden tests in golden_test.go pin these bytes.
const (
	walMagic = "ITCWAL02"

	walName  = "wal.log"
	ckptName = "checkpoint"

	// maxRecord caps one record's payload; anything larger is corruption.
	maxRecord = 1 << 28
)

// oldFormats are the magics of the files earlier builds wrote. Open refuses a
// file that starts with one rather than take it for damage and discard it.
var oldFormats = []string{"ITCWAL01", "ITCCKP01"}

// Record kinds.
const (
	kindBegin        uint8 = 1
	kindDrop         uint8 = 2
	kindCommit       uint8 = 3
	kindLoc          uint8 = 4
	kindProt         uint8 = 5
	kindProtSnapshot uint8 = 6
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errTorn = errors.New("walstore: torn or corrupt record")

// recPrefix is the bytes of a record ahead of its body: the len/crc header
// and the seq/kind stamp.
const recPrefix = 8 + 9

// reserveRecord appends a record's blank prefix to e and returns where the
// record starts, for finishRecord to stamp once its body follows. A record
// is built where it is written from: a log record in the store's record
// buffer (put), a checkpoint's in the checkpoint file's.
func reserveRecord(e *wire.Encoder) int {
	start := e.Len()
	var blank [recPrefix]byte
	e.Raw(blank[:])
	return start
}

// finishRecord completes rec, a record from its reserved prefix to the end
// of its encoded body, in place: it stamps seq and kind ahead of the body,
// then writes the header over the finished payload.
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

// buildCheckpoint builds the checkpoint file of seq: the log's magic, then
// the records of cp (see the format above), each framed as a log record and
// stamped seq in place. The buffer is grown once, to exactly what the volume
// images and the protection database need, when their sizes are measured,
// and each live volume is encoded in place after its record's prefix, id and
// length. A volume's file contents are thus copied once, into the file's
// buffer.
//
// Every record is held to the log's own limit (checkSize) before that
// growth: a checkpoint is written in order to truncate the log, so one that
// cannot be read back loses everything.
func buildCheckpoint(seq uint64, cp store.Checkpoint) ([]byte, error) {
	var e wire.Encoder
	e.Raw([]byte(walMagic))
	start := reserveRecord(&e)
	proto.LocInstallArgs{Entries: cp.Loc}.Encode(&e)
	if err := checkSize(kindLoc, e.Len()-start-recPrefix); err != nil {
		return nil, err
	}
	finishRecord(e.Buf()[start:], seq, kindLoc)

	if err := checkSize(kindProtSnapshot, len(cp.Prot)); err != nil {
		return nil, err
	}
	rest := recPrefix + len(cp.Prot)
	sizes := make([]int, len(cp.Volumes))
	for i, v := range cp.Volumes {
		sizes[i] = v.ImageSize()
		if err := checkSize(kindBegin, 8+sizes[i]); err != nil {
			return nil, fmt.Errorf("%w (volume %d)", err, v.ID())
		}
		rest += recPrefix + 8 + sizes[i]
	}
	e.Grow(rest)
	for i, v := range cp.Volumes {
		start := reserveRecord(&e)
		e.U32(v.ID())
		e.U32(uint32(sizes[i]))
		if n := v.EncodeImage(&e); n != sizes[i] {
			// The caller let the volume change under the snapshot; its length
			// prefix would misframe the record.
			return nil, fmt.Errorf("walstore: checkpoint: volume %d encoded %d bytes, measured %d", v.ID(), n, sizes[i])
		}
		finishRecord(e.Buf()[start:], seq, kindBegin)
	}
	start = reserveRecord(&e)
	e.Raw(cp.Prot)
	finishRecord(e.Buf()[start:], seq, kindProtSnapshot)
	return e.Buf(), nil
}
