// Package store defines the durable-storage interface behind Vice volume
// state, and the commit records that cross it.
//
// The interface is a narrow waist: internal/vice mutates its in-memory
// volumes exactly as before, then hands the store one Commit describing what
// changed — the volume header plus the metadata records and file contents of
// the touched vnodes and the edits to the touched directories, split into
// separate fields so an engine can route small metadata records and large
// data blobs differently (the classic metadata/blocks layering of
// log-structured file stores). There is one
// engine, walstore: it appends each commit to a checksummed write-ahead log
// with group-commit fsync and periodic checkpoints, and recovers by replay.
// It runs on an FS — the daemon's real directory (DirFS), or MemFS when the
// deterministic simulator journals without touching disk: no clocks, no
// fsync, no perturbation. The interface stays because vice's tests put fakes
// behind it.
//
// Location-database and protection-database changes flow through the same
// store (PutLoc/PutProt) so a server restart loses neither.
//
// The durability contract: an operation is durable once Sync returns nil
// after its Commit. Recover returns the state rebuilt from everything
// durable — a prefix of the committed operations that includes at least all
// synced ones and never a torn suffix.
package store

import (
	"errors"
	"fmt"
	"sort"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// Commit describes the durable effect of one logical operation on one
// volume: the post-state of every vnode the operation touched, apart from
// directory entries, and for every directory it changed the entries under
// the names it entered or removed (volume.DirEdit), plus the volume header.
// A directory's whole entry table is written only with a whole volume
// (Store.BeginVolume, Store.Checkpoint), so a commit is the size of what
// changed. Applying a commit to the volume's prior state must be idempotent
// — recovery may replay a commit whose effects already partially survive.
type Commit struct {
	Vol     uint32
	Hdr     volume.Header
	Deletes []uint32           // vnodes removed, ascending
	Meta    []volume.VnodeMeta // metadata records changed, ascending by vnode
	Data    []volume.VnodeData // file contents changed, ascending by vnode
	Dirs    []volume.DirEdit   // directory edits, ascending by vnode
}

// Encode marshals the commit.
func (c Commit) Encode(e *wire.Encoder) {
	e.U32(c.Vol)
	c.Hdr.Encode(e)
	e.ListLen(len(c.Deletes))
	for _, id := range c.Deletes {
		e.U32(id)
	}
	e.ListLen(len(c.Meta))
	for _, m := range c.Meta {
		e.U32(m.Vnode)
		e.Bytes(m.Meta)
	}
	e.ListLen(len(c.Data))
	for _, d := range c.Data {
		e.U32(d.Vnode)
		e.Bytes(d.Data)
	}
	e.ListLen(len(c.Dirs))
	for _, ed := range c.Dirs {
		e.U32(ed.Vnode)
		proto.EncodeDirEntries(e, ed.Insert)
		e.ListLen(len(ed.Remove))
		for _, name := range ed.Remove {
			e.String(name)
		}
	}
}

// EncodedSize is the length of the commit's Encode form.
func (c Commit) EncodedSize() int {
	n := 4 + headerSize + 4*4 + 4*len(c.Deletes) // the volume, its header, four list lengths
	for _, m := range c.Meta {
		n += 8 + len(m.Meta)
	}
	for _, d := range c.Data {
		n += 8 + len(d.Data)
	}
	for _, ed := range c.Dirs {
		n += 4 + int(proto.DirSize(ed.Insert)) + 4
		for _, name := range ed.Remove {
			n += 4 + len(name)
		}
	}
	return n
}

// headerSize is the length of a volume.Header's encoding.
var headerSize = len(wire.Marshal(volume.Header{}))

// DecodeCommit unmarshals a commit. Byte fields alias the decoder's buffer.
// Counts are untrusted (wire.Decoder.ListLen), and an edit's inserts out of
// name order fail d.
func DecodeCommit(d *wire.Decoder) Commit {
	c := Commit{Vol: d.U32(), Hdr: volume.DecodeHeader(d)}
	n := d.ListLen(4)
	for i := 0; i < n && d.Err() == nil; i++ {
		c.Deletes = append(c.Deletes, d.U32())
	}
	n = d.ListLen(8)
	for i := 0; i < n && d.Err() == nil; i++ {
		c.Meta = append(c.Meta, volume.VnodeMeta{Vnode: d.U32(), Meta: d.Bytes()})
	}
	n = d.ListLen(8)
	for i := 0; i < n && d.Err() == nil; i++ {
		c.Data = append(c.Data, volume.VnodeData{Vnode: d.U32(), Data: d.Bytes()})
	}
	n = d.ListLen(12)
	for i := 0; i < n && d.Err() == nil; i++ {
		ed := volume.DirEdit{Vnode: d.U32(), Insert: proto.DecodeDirEntries(d)}
		m := d.ListLen(4)
		ed.Remove = make([]string, 0, m)
		for j := 0; j < m && d.Err() == nil; j++ {
			ed.Remove = append(ed.Remove, d.String())
		}
		c.Dirs = append(c.Dirs, ed)
	}
	return c
}

// CommitOf drains v's dirty sets into a commit record. The volume must have
// dirty tracking enabled.
//
// The commit borrows from v: its lists and every Meta[i].Meta are the
// volume's journal scratch (volume.TakeDirty), valid until the next
// CommitOf(v) overwrites them; Data slices are the volume's own contents
// (WriteData replaces slices, so they are stable). A caller therefore hands
// the commit to Store.Commit, or encodes it, before v is next drained —
// vice.mutate does both steps inside one hold of its apply lock — and a
// Store is done with a commit's slices when its Commit returns.
func CommitOf(v *volume.Volume) Commit {
	meta, data, dirs, dead := v.TakeDirty()
	return Commit{Vol: v.ID(), Hdr: v.Header(), Deletes: dead, Meta: meta, Data: data, Dirs: dirs}
}

// ApplyCommit replays a commit onto v (recovery and shadow maintenance):
// deletions, metadata, contents, then directory edits, which may name a
// directory the commit's metadata created.
func ApplyCommit(v *volume.Volume, c Commit) error {
	if c.Vol != v.ID() {
		return fmt.Errorf("store: commit for volume %d applied to %d", c.Vol, v.ID())
	}
	for _, id := range c.Deletes {
		v.DropVnode(id)
	}
	for _, m := range c.Meta {
		if err := v.RestoreVnodeMeta(m.Vnode, m.Meta); err != nil {
			return err
		}
	}
	for _, d := range c.Data {
		if err := v.RestoreData(d.Vnode, d.Data); err != nil {
			return err
		}
	}
	for _, ed := range c.Dirs {
		if err := v.RestoreDirEdit(ed); err != nil {
			return err
		}
	}
	v.RestoreHeader(c.Hdr)
	return nil
}

// ErrTooLarge is wrapped by a Store's refusal of a record or checkpoint that
// recovery would not read back. Such a refusal writes nothing and leaves the
// store usable, where a failed write or sync latches it.
var ErrTooLarge = errors.New("store: too large to recover")

// LocOp is one location-database change: entries installed and prefixes
// removed, in the order the server applied them.
type LocOp struct {
	Entries []proto.LocEntry
	Remove  []string
}

// Checkpoint is a full snapshot of server state: after it is durable the
// engine may discard all earlier history.
//
// Volumes are the server's live volumes, not copies: the engine encodes each
// one straight into the snapshot it writes, so the caller keeps them from
// changing until Store.Checkpoint returns (Vice holds its gate's write side).
type Checkpoint struct {
	Prot    []byte           // prot.DB.Snapshot image
	Loc     []proto.LocEntry // complete location database, sorted by prefix
	Volumes []*volume.Volume // every volume, ascending by ID
}

// VolumeReport describes one volume's recovery outcome.
type VolumeReport struct {
	ID      uint32
	Name    string
	Vnodes  int
	Salvage volume.SalvageReport
}

// Report summarizes a recovery pass: how much of the log was replayed, what
// was discarded as torn or corrupt, and what salvage repaired per volume.
// Its text form is sorted and byte-stable for identical logs.
type Report struct {
	CheckpointSeq    uint64 // seqno the checkpoint covered (0 = none)
	LastSeq          uint64 // last record applied
	Replayed         int    // records applied from the log
	Skipped          int    // records at or below the checkpoint seqno
	DiscardedRecords int    // torn or corrupt records dropped from the tail
	DiscardedBytes   int64  // bytes dropped with them
	Notes            []string
	Volumes          []VolumeReport // ascending by ID
}

// Lines renders the report as stable, sorted text lines.
func (r Report) Lines() []string {
	lines := []string{fmt.Sprintf(
		"recovery: checkpoint seq=%d replayed=%d skipped=%d last seq=%d discarded=%d records (%d bytes)",
		r.CheckpointSeq, r.Replayed, r.Skipped, r.LastSeq, r.DiscardedRecords, r.DiscardedBytes)}
	notes := append([]string(nil), r.Notes...)
	sort.Strings(notes)
	for _, n := range notes {
		lines = append(lines, "note: "+n)
	}
	vols := append([]VolumeReport(nil), r.Volumes...)
	sort.Slice(vols, func(i, j int) bool { return vols[i].ID < vols[j].ID })
	for _, vr := range vols {
		s := vr.Salvage
		lines = append(lines, fmt.Sprintf(
			"volume %d (%s): vnodes=%d orphans=%d dangling=%d links=%d bytes_corrected=%v",
			vr.ID, vr.Name, vr.Vnodes, s.OrphansRemoved, s.DanglingEntries, s.LinksFixed, s.BytesCorrected))
	}
	return lines
}

// String renders Lines joined by newlines, with a trailing newline.
func (r Report) String() string {
	var out []byte
	for _, l := range r.Lines() {
		out = append(out, l...)
		out = append(out, '\n')
	}
	return string(out)
}

// Recovery is everything a server needs to resume after Open/Recover:
// rebuilt volumes (already salvaged), the protection and location databases,
// and the report of what recovery did.
type Recovery struct {
	ProtSnapshot  []byte          // last checkpointed prot image (nil = none)
	ProtMutations []prot.Mutation // mutations since, in order
	LocOps        []LocOp         // location changes since, in order
	Volumes       []*volume.Volume
	Report        Report
}

// Store is the durable engine behind a Vice server. Implementations must be
// safe for concurrent use. The caller serializes Commit/PutLoc/PutProt per
// logical operation (the server's apply lock); Sync may be called
// concurrently from many committers and coalesces (group commit).
type Store interface {
	// BeginVolume records a volume's existence with its full initial image
	// (creation, clone installation, volume moves).
	BeginVolume(id uint32, image []byte) error
	// DropVolume forgets a volume and all its history.
	DropVolume(id uint32) error
	// Commit records the durable effect of one logical operation. The
	// commit's slices are the caller's (see CommitOf): an implementation
	// reads them before it returns and keeps none of them.
	Commit(c Commit) error
	// PutLoc records a location-database change.
	PutLoc(entries []proto.LocEntry, remove []string) error
	// PutProt records a protection-database mutation.
	PutProt(m prot.Mutation) error
	// Sync makes everything committed so far durable. An operation may be
	// acknowledged to a client only after Sync returns nil.
	Sync() error
	// Recover returns the state rebuilt at Open time. It reflects every
	// synced operation and possibly a few later committed-but-unsynced ones;
	// never a torn suffix.
	Recover() (*Recovery, error)
	// Checkpoint atomically replaces all history with a full snapshot.
	Checkpoint(cp Checkpoint) error
	// Close releases resources. It does not imply Sync.
	Close() error
}
