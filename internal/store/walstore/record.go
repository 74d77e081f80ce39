package walstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
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
//	kindCommit: store.Commit encoding          see below
//	kindLoc:    proto.LocInstallArgs encoding
//	kindProt:   prot.Mutation encoding
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
// A commit carries no directory's whole entry table; only kindBegin and the
// checkpoint do. The first form of this log wrote commits that end after
// their contents, with no edit list, and whose meta records each go on to
// the vnode's whole entry table (proto.EncodeDirEntries); replay reads such
// a commit as written (store.DecodeCommit, volume.RestoreVnodeMeta), so a
// log may hold both forms.
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

// pooledRecord is the record size from which newRecord does not borrow from
// the encoder pool. It repeats wire.maxPooled, the bound wire.PutEncoder
// enforces (see there for the measurement that set it): a buffer grown to
// this size would not be taken back, and growing a warm pooled encoder only
// to have it dropped would cost the next small message its buffer. Were the
// two to differ nothing breaks — a record between them is built in a pooled
// encoder that is then dropped, or in a fresh one that is then pooled.
const pooledRecord = 64 << 10

// newRecord returns an encoder holding a record whose prefix is reserved but
// blank, with room for bodySize more bytes. The caller encodes the body
// straight after it and Store.append fills the prefix in, appends the record
// and releases the encoder, so a record is built in the one buffer that is
// appended to the log, not encoded, stamped and framed through three. A
// small record is built in a pooled buffer, the memory the last one used; a
// record that may carry a whole file costs its one sized allocation, which
// no pool keeps afterwards.
func newRecord(bodySize int) *wire.Encoder {
	var e *wire.Encoder
	if recPrefix+bodySize < pooledRecord {
		e = wire.GetEncoder()
	} else {
		e = new(wire.Encoder)
	}
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

// ckptPrefix is the bytes of a checkpoint file ahead of its payload: the
// magic and the len/crc header.
const ckptPrefix = len(ckptMagic) + 8

// buildCheckpoint builds the checkpoint file as newRecord/finishRecord build
// a log record: the prefix is reserved, the payload is encoded after it — the
// buffer grown once, to exactly what the volume images need, when their sizes
// are measured, and each live volume encoded in place after its id and
// length — and magic, length and CRC are stamped in place. A volume's file
// contents are thus copied once, into the file's buffer.
//
// It refuses, before that growth, a snapshot readCheckpoint would reject: a
// checkpoint is written in order to truncate the log, so one that cannot be
// read back loses everything.
func buildCheckpoint(seq uint64, cp store.Checkpoint) ([]byte, error) {
	var e wire.Encoder
	var blank [ckptPrefix]byte
	e.Raw(blank[:])
	e.U64(seq)
	e.Bytes(cp.Prot)
	e.ListLen(len(cp.Loc))
	for _, le := range cp.Loc {
		le.Encode(&e)
	}
	e.ListLen(len(cp.Volumes))
	sizes := make([]int, len(cp.Volumes))
	images := 0
	for i, v := range cp.Volumes {
		sizes[i] = v.ImageSize()
		images += 8 + sizes[i]
	}
	if size := e.Len() - ckptPrefix + images; size > maxRecord || len(cp.Prot) > wire.MaxField {
		return nil, fmt.Errorf("walstore: checkpoint payload of %d bytes (protection database %d) is more than recovery reads back (%d, %d)",
			size, len(cp.Prot), maxRecord, wire.MaxField)
	}
	e.Grow(images)
	for i, v := range cp.Volumes {
		e.U32(v.ID())
		e.U32(uint32(sizes[i]))
		if n := v.EncodeImage(&e); n != sizes[i] {
			// The caller let the volume change under the snapshot; its length
			// prefix would misframe everything after it.
			return nil, fmt.Errorf("walstore: checkpoint: volume %d encoded %d bytes, measured %d", v.ID(), n, sizes[i])
		}
	}
	out := e.Buf()
	payload := out[ckptPrefix:]
	copy(out, ckptMagic)
	binary.LittleEndian.PutUint32(out[len(ckptMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[len(ckptMagic)+4:], crc32.Checksum(payload, castagnoli))
	return out, nil
}

// readCheckpoint parses a checkpoint file. Any malformation of the file is
// an error; the caller treats a bad checkpoint as absent (and says so in the
// report). A volume whose image alone will not decode is left out, with a
// note saying so. Each volume is decoded where its image lies in buf, so its
// file contents are copied once, by volume.Deserialize; nothing returned
// aliases buf.
func readCheckpoint(buf []byte) (seq uint64, cp store.Checkpoint, notes []string, err error) {
	if len(buf) < ckptPrefix || string(buf[:len(ckptMagic)]) != ckptMagic {
		return 0, cp, nil, fmt.Errorf("walstore: checkpoint: bad magic")
	}
	n := binary.LittleEndian.Uint32(buf[len(ckptMagic):])
	crc := binary.LittleEndian.Uint32(buf[len(ckptMagic)+4:])
	payload := buf[ckptPrefix:]
	if uint32(len(payload)) != n || n > maxRecord {
		return 0, cp, nil, fmt.Errorf("walstore: checkpoint: bad length")
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, cp, nil, fmt.Errorf("walstore: checkpoint: bad checksum")
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
		id := d.U32()
		// An image is bounded by the checkpoint's own format (the payload
		// length checked above), not by what one network message may carry.
		image := d.BytesLimit(maxRecord)
		if d.Err() != nil {
			break
		}
		v, err := volume.Deserialize(image, nil)
		if err == nil && v.ID() != id {
			err = fmt.Errorf("image declares id %d", v.ID())
		}
		if err != nil {
			notes = append(notes, fmt.Sprintf("checkpoint volume %d unreadable, dropped: %v", id, err))
			continue
		}
		cp.Volumes = append(cp.Volumes, v)
	}
	if err := d.Close(); err != nil {
		return 0, store.Checkpoint{}, nil, fmt.Errorf("walstore: checkpoint: %w", err)
	}
	return seq, cp, notes, nil
}
