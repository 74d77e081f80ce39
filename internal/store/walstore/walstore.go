// Package walstore is the on-disk store engine: a write-ahead log with
// group-commit fsync and periodic checkpoint/compaction.
//
// Every store operation appends one checksummed, sequence-numbered record
// to wal.log (see record.go for the format), built under the store's mutex
// in the one buffer the store keeps for its records: a file's contents are
// copied once, into memory an earlier record grew. Checkpoint and Close give
// that buffer back, so a store holds at most its largest record since its
// last checkpoint. Sync fsyncs the log —
// concurrent committers coalesce onto a single fsync (group commit) — and
// only then may the server acknowledge the operations. Checkpoint writes a
// full snapshot, as the records of a log of its own, to a separate file with
// an atomic rename and truncates the log, bounding both recovery time and
// disk use.
//
// Open is recovery: load the checkpoint if one is intact, replay log
// records past its sequence number, stop at the first torn or corrupt
// record and truncate the tail it starts (a CRC-valid record that is merely
// semantically unusable — say a commit for a volume whose checkpoint image
// was dropped — is skipped with a note instead, so it cannot take healthy
// volumes' later records down with it), then run volume salvage over the
// rebuilt state. What fsync is assumed to guarantee, and what the replay
// discipline tolerates, is spelled out in DESIGN.md §9.
//
// The engine never reads a clock and makes no scheduling decisions of its
// own; given the same inputs it produces the same bytes, which the salvage
// determinism test pins.
package walstore

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// Store is the WAL engine. It implements store.Store.
type Store struct {
	fsys store.FS

	mu   sync.Mutex
	cond *sync.Cond // signals sync completion; paired with mu

	// guarded by mu
	log store.File // append handle on wal.log
	// guarded by mu
	seq uint64 // last sequence number appended
	// guarded by mu
	synced uint64 // last sequence number known durable
	// guarded by mu
	syncing bool // an fsync is in flight (group commit)
	// guarded by mu
	ckptSeq uint64 // sequence number the checkpoint file covers
	// guarded by mu
	err error // first write/sync failure; latched, store is dead after
	// guarded by mu
	rec wire.Encoder // every log record is built here (put); Checkpoint and Close drop it

	recovered *store.Recovery // built once at Open, handed over by Recover
}

// Open mounts (or creates) a store on fsys and runs crash recovery. The
// returned store is ready for commits; Recover hands over the rebuilt
// state.
func Open(fsys store.FS) (*Store, error) {
	s := &Store{fsys: fsys}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		return nil, err
	}
	f, err := fsys.Open(walName)
	if err != nil {
		return nil, fmt.Errorf("walstore: open log: %w", err)
	}
	s.log = f
	return s, nil
}

// recover rebuilds state from the checkpoint and log, truncating any torn
// tail, and leaves the result in s.recovered. It runs once from Open, before
// the store is shared; it takes mu anyway so the seqno fields have one
// locking story. A file an earlier build wrote fails it, before anything is
// changed on disk.
func (s *Store) recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := &store.Recovery{}
	vols := map[uint32]*volume.Volume{}

	// Checkpoint: a damaged one is treated as absent — the log still holds
	// every record it would have covered only if compaction never ran, so
	// say loudly that history may be gone.
	if buf, err := s.fsys.ReadFile(ckptName); err == nil {
		if err := refuseOldFormat(ckptName, buf); err != nil {
			return err
		}
		seq, err := loadCheckpoint(buf, vols, rec)
		if err != nil {
			rec, vols = &store.Recovery{}, map[uint32]*volume.Volume{}
			rec.Report.Notes = append(rec.Report.Notes, fmt.Sprintf("checkpoint unreadable, ignored: %v", err))
		} else {
			s.ckptSeq = seq
			rec.Report.CheckpointSeq = seq
		}
	}
	rep := &rec.Report

	// Log: replay valid records past the checkpoint; the first invalid one
	// ends the log and the tail it starts is truncated away.
	buf, err := s.fsys.ReadFile(walName)
	if err != nil {
		buf = nil // no log yet
	}
	if err := refuseOldFormat(walName, buf); err != nil {
		return err
	}
	switch {
	case bytes.HasPrefix(buf, []byte(walMagic)):
		s.replay(buf, vols, rec)
	case len(buf) > 0:
		rep.Notes = append(rep.Notes, "log header unreadable, log discarded")
		rep.DiscardedBytes += int64(len(buf))
		if err := s.fsys.Remove(walName); err != nil {
			return fmt.Errorf("walstore: reset log: %w", err)
		}
		fallthrough
	default:
		//itcvet:allowblocking recovery runs once at startup under mu; no other holder exists yet
		if err := s.fsys.WriteFileAtomic(walName, []byte(walMagic)); err != nil {
			return fmt.Errorf("walstore: init log: %w", err)
		}
	}
	if s.seq < s.ckptSeq {
		s.seq = s.ckptSeq
	}
	s.synced = s.seq
	rep.LastSeq = s.seq

	// Salvage every volume, in volume-ID order so the report is stable.
	for _, id := range sortedIDs(vols) {
		v := vols[id]
		sr := v.Salvage()
		rec.Volumes = append(rec.Volumes, v)
		rep.Volumes = append(rep.Volumes, store.VolumeReport{
			ID: id, Name: v.Name(), Vnodes: v.VnodeCount(), Salvage: sr,
		})
	}
	s.recovered = rec
	return nil
}

// replay applies the log in buf to vols/rec and truncates any invalid tail.
//
//itcvet:holds mu
func (s *Store) replay(buf []byte, vols map[uint32]*volume.Volume, rec *store.Recovery) {
	rep := &rec.Report
	off := len(walMagic)
	valid := off // end of the last fully-valid record
	var prev uint64
	for off < len(buf) {
		seq, kind, body, next, err := readRecord(buf, off)
		if err != nil {
			break
		}
		// Sequence discipline: the first record sets the base; after that
		// every record must follow its predecessor exactly. A repeat, gap
		// or rewind means the tail is not ours.
		if prev != 0 && seq != prev+1 {
			break
		}
		if prev == 0 && seq == 0 {
			break
		}
		prev = seq
		if seq <= s.ckptSeq {
			rep.Skipped++
			valid = next
			off = next
			continue
		}
		if err := applyRecord(kind, body, vols, rec); err != nil {
			if errors.Is(err, errRecordCorrupt) {
				// CRC passed but the body won't decode: format corruption,
				// so nothing past this record can be trusted.
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"record seq %d (%s) corrupt, log ends here: %v", seq, kindName(kind), err))
				break
			}
			// Decodable but semantically unusable — e.g. a commit for a
			// volume dropped because its checkpoint image was unreadable.
			// Skip just this record: truncating here would discard every
			// later acked record for healthy volumes.
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"record seq %d (%s) unusable, skipped: %v", seq, kindName(kind), err))
			s.seq = seq
			valid = next
			off = next
			continue
		}
		rep.Replayed++
		s.seq = seq
		valid = next
		off = next
	}
	if valid < len(buf) {
		rep.DiscardedRecords++
		rep.DiscardedBytes += int64(len(buf) - valid)
		if err := s.fsys.Truncate(walName, int64(valid)); err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("tail truncation failed: %v", err))
		}
	}
}

// loadCheckpoint applies the checkpoint in buf to vols and rec, which are
// empty, and returns the seqno S it covers. A volume whose image alone will
// not decode is left out, with a note. Any other fault — a record that does
// not read back or whose body does not decode, a stamp other than S, a file
// that does not end at its protection snapshot — is an error, and the
// caller discards what was applied: a checkpoint is used whole or not at all.
func loadCheckpoint(buf []byte, vols map[uint32]*volume.Volume, rec *store.Recovery) (uint64, error) {
	if !bytes.HasPrefix(buf, []byte(walMagic)) {
		return 0, errors.New("bad magic")
	}
	var stamp uint64
	for off := len(walMagic); off < len(buf); {
		seq, kind, body, next, err := readRecord(buf, off)
		if err != nil {
			return 0, fmt.Errorf("record at byte %d: %w", off, err)
		}
		if off == len(walMagic) {
			stamp = seq
		} else if seq != stamp {
			return 0, fmt.Errorf("record at byte %d stamped %d, the first %d", off, seq, stamp)
		}
		if err := applyRecord(kind, body, vols, rec); errors.Is(err, errRecordCorrupt) {
			return 0, fmt.Errorf("%s record at byte %d: %w", kindName(kind), off, err)
		} else if err != nil {
			rec.Report.Notes = append(rec.Report.Notes, fmt.Sprintf("checkpoint %s record unusable, dropped: %v", kindName(kind), err))
		}
		if kind == kindProtSnapshot {
			if next != len(buf) {
				return 0, fmt.Errorf("%d bytes after the protection snapshot", len(buf)-next)
			}
			return stamp, nil
		}
		off = next
	}
	return 0, errors.New("no protection snapshot: the file is cut short")
}

// refuseOldFormat fails when buf, the contents of the file name, starts with
// the magic of a format an earlier build wrote.
func refuseOldFormat(name string, buf []byte) error {
	for _, magic := range oldFormats {
		if bytes.HasPrefix(buf, []byte(magic)) {
			return fmt.Errorf("walstore: %s is in the %s format, which this build does not read; it is left as it is", name, magic)
		}
	}
	return nil
}

// errRecordCorrupt marks a CRC-valid record whose body nonetheless fails to
// decode: format-level corruption, so replay must not trust the log past it.
// Any other applyRecord error is a semantic rejection of just that record.
var errRecordCorrupt = errors.New("body undecodable")

func kindName(kind uint8) string {
	switch kind {
	case kindBegin:
		return "begin"
	case kindDrop:
		return "drop"
	case kindCommit:
		return "commit"
	case kindLoc:
		return "loc"
	case kindProt:
		return "prot"
	case kindProtSnapshot:
		return "prot snapshot"
	}
	return fmt.Sprintf("kind %d", kind)
}

// applyRecord applies one decoded record. errRecordCorrupt (possibly
// wrapped) means the log cannot be trusted past this record; any other
// error means this record alone is unusable.
func applyRecord(kind uint8, body []byte, vols map[uint32]*volume.Volume, rec *store.Recovery) error {
	switch kind {
	case kindBegin:
		d := wire.NewDecoder(body)
		id := d.U32()
		image := d.BytesLimit(maxRecord) // bounded by the record, not the wire
		if d.Close() != nil {
			return errRecordCorrupt
		}
		v, err := volume.Deserialize(image, nil)
		if err != nil {
			return fmt.Errorf("volume %d image unreadable: %v", id, err)
		}
		if v.ID() != id {
			return fmt.Errorf("volume %d image declares id %d", id, v.ID())
		}
		vols[id] = v
	case kindDrop:
		d := wire.NewDecoder(body)
		id := d.U32()
		if d.Close() != nil {
			return errRecordCorrupt
		}
		delete(vols, id)
	case kindCommit:
		d := wire.NewDecoder(body)
		c := store.DecodeCommit(d)
		if d.Close() != nil {
			return errRecordCorrupt
		}
		v, ok := vols[c.Vol]
		if !ok {
			return fmt.Errorf("commit for unknown volume %d", c.Vol)
		}
		if err := store.ApplyCommit(v, c); err != nil {
			return fmt.Errorf("commit to volume %d: %v", c.Vol, err)
		}
	case kindLoc:
		d := wire.NewDecoder(body)
		a := proto.DecodeLocInstallArgs(d)
		if d.Close() != nil {
			return errRecordCorrupt
		}
		rec.LocOps = append(rec.LocOps, store.LocOp{Entries: a.Entries, Remove: a.Remove})
	case kindProt:
		d := wire.NewDecoder(body)
		m := prot.DecodeMutation(d)
		if d.Close() != nil {
			return errRecordCorrupt
		}
		rec.ProtMutations = append(rec.ProtMutations, m)
	case kindProtSnapshot:
		// The whole database, so every mutation before it is in it. An empty
		// image is none (nil).
		rec.ProtSnapshot = append([]byte(nil), body...)
		rec.ProtMutations = nil
	default:
		return fmt.Errorf("unknown record kind %d: %w", kind, errRecordCorrupt)
	}
	return nil
}

// put appends one record of kind whose body is m, which encodes in bodySize
// bytes (0: not known ahead), with the next seqno, in one Append — a record
// is never split: each Append is one crash point, and recovery's torn-tail
// rule is stated per record.
//
// Every record is built under mu in s.rec, the store's one record buffer:
// emptied, grown to the record's size, the body encoded after a reserved
// prefix and the prefix stamped in place, so a record's bytes, a file's
// contents included, are copied once, into memory an earlier record
// already grew. File.Append's contract (it keeps nothing of its argument)
// lets the next record overwrite it. The buffer keeps the capacity of the
// largest record since the last Checkpoint, which drops it, as Close does.
// It is generic over the body, as wire.Marshal is, so that a commit is
// encoded where it lies, not boxed.
//
// A record recovery would not read back is refused (see checkSize): before
// it is built when bodySize says so, else before it is appended.
func put[M wire.Message](s *Store, kind uint8, bodySize int, m M) error {
	if err := checkSize(kind, bodySize); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	e := &s.rec
	e.Reset()
	e.Grow(recPrefix + bodySize)
	reserveRecord(e)
	m.Encode(e)
	rec := e.Buf()
	if err := checkSize(kind, len(rec)-recPrefix); err != nil {
		return err
	}
	finishRecord(rec, s.seq+1, kind)
	if err := s.log.Append(rec); err != nil {
		s.err = fmt.Errorf("walstore: append: %w", err)
		s.cond.Broadcast()
		return s.err
	}
	s.seq++
	return nil
}

// checkSize refuses a record of kind whose body is bodySize bytes if
// recovery would not read it back: readRecord takes a payload over maxRecord
// for a torn tail, and drops it and everything after it. The refusal wraps
// store.ErrTooLarge and does not latch the store: the caller's operation
// fails, the log and every other volume are untouched.
func checkSize(kind uint8, bodySize int) error {
	if payload := recPrefix - 8 + bodySize; payload > maxRecord {
		return fmt.Errorf("walstore: %s record of %d bytes is more than recovery reads back (%d): %w",
			kindName(kind), payload, maxRecord, store.ErrTooLarge)
	}
	return nil
}

// BeginVolume records a volume's existence with its full initial image.
func (s *Store) BeginVolume(id uint32, image []byte) error {
	return put(s, kindBegin, 8+len(image), beginBody{id, image})
}

// DropVolume forgets a volume.
func (s *Store) DropVolume(id uint32) error {
	return put(s, kindDrop, 4, dropBody(id))
}

// Commit records the durable effect of one logical operation. It is done
// with c's slices when it returns: they are copied into the record here.
func (s *Store) Commit(c store.Commit) error {
	return put(s, kindCommit, c.EncodedSize(), c)
}

// PutLoc records a location-database change.
func (s *Store) PutLoc(entries []proto.LocEntry, remove []string) error {
	return put(s, kindLoc, 0, proto.LocInstallArgs{Entries: entries, Remove: remove})
}

// PutProt records a protection-database mutation.
func (s *Store) PutProt(m prot.Mutation) error {
	return put(s, kindProt, 0, m)
}

// beginBody is a kindBegin record's body: the volume's id and image.
type beginBody struct {
	id    uint32
	image []byte
}

func (b beginBody) Encode(e *wire.Encoder) {
	e.U32(b.id)
	e.Bytes(b.image)
}

// dropBody is a kindDrop record's body: the volume's id.
type dropBody uint32

func (id dropBody) Encode(e *wire.Encoder) { e.U32(uint32(id)) }

// Sync makes every appended record durable before returning. Concurrent
// callers coalesce: whoever finds no fsync in flight issues one, everyone
// else waits for a completion that covers their records.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	target := s.seq
	for {
		if s.err != nil {
			return s.err
		}
		if s.synced >= target {
			return nil
		}
		if s.syncing {
			s.cond.Wait()
			continue
		}
		s.syncing = true
		covers := s.seq // appended before the fsync starts, so covered by it
		log := s.log    // capture under mu: Close may nil the field
		s.mu.Unlock()
		err := log.Sync()
		s.mu.Lock()
		s.syncing = false
		if err != nil {
			if s.err == nil {
				s.err = fmt.Errorf("walstore: fsync: %w", err)
			}
		} else if s.synced < covers {
			s.synced = covers
		}
		s.cond.Broadcast()
	}
}

// Recover hands over the state rebuilt at Open. Ownership of the volumes
// transfers to the caller; Recover must be called at most once.
func (s *Store) Recover() (*store.Recovery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovered == nil {
		return nil, errors.New("walstore: Recover called twice")
	}
	rec := s.recovered
	s.recovered = nil
	return rec, nil
}

// Checkpoint atomically replaces all history with a full snapshot: write
// the snapshot file (atomic rename), then truncate the log. A crash between
// the two is safe — replay skips records at or below the checkpoint seqno.
//
// A snapshot with a record too large for recovery to read back is refused
// with nothing written (checkSize): the old checkpoint and the log stay as
// they are, the log keeps growing, and the store stays usable.
func (s *Store) Checkpoint(cp store.Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	snapshot, err := buildCheckpoint(s.seq, cp)
	if err != nil {
		return err
	}
	//itcvet:allowblocking checkpoint must exclude appends for the snapshot+truncate pair to be a consistent cut
	if err := s.fsys.WriteFileAtomic(ckptName, snapshot); err != nil {
		s.err = fmt.Errorf("walstore: write checkpoint: %w", err)
		s.cond.Broadcast()
		return s.err
	}
	if err := s.fsys.Truncate(walName, int64(len(walMagic))); err != nil {
		s.err = fmt.Errorf("walstore: truncate log: %w", err)
		s.cond.Broadcast()
		return s.err
	}
	s.ckptSeq = s.seq
	s.synced = s.seq
	// The snapshot was just built in a buffer of its own; the next record
	// grows the record buffer afresh, so a store holds no more than its
	// largest record since its last checkpoint.
	s.rec = wire.Encoder{}
	return nil
}

// Close releases the log handle. It does not imply Sync. Closing latches
// the store's error so a racing Commit or Sync (an RPC handler still
// mid-mutate during shutdown) gets an error back instead of dereferencing
// the nil log handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	s.rec = wire.Encoder{}
	if s.err == nil {
		s.err = errors.New("walstore: closed")
	}
	s.cond.Broadcast()
	return err
}

func sortedIDs(m map[uint32]*volume.Volume) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
