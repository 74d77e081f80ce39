package vice

// Durable storage. When Config.Store is set, every volume mutation, every
// location-database change and every protection-database mutation is
// journalled through the store before the operation is acknowledged; at
// startup RecoverStore loads back what survived a crash and reports what
// salvage repaired. When Config.Store is nil — the deterministic simulator's
// default — the same changes go through the same routine and nothing is
// appended.
//
// Locking is the gate's rule (Server.gate): every change is made by commit,
// under the gate's write side, and CheckpointStore holds that side for its
// cut. The gate is acquired before s.mu, never while holding it.

import (
	"errors"
	"fmt"
	"sort"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/trace"
	"itcfs/internal/volume"
)

// storeErr converts a store failure into the internal-error code clients
// see. The store latches its first failure, so once this happens every
// subsequent mutation fails the same way — the server is effectively
// read-only until restarted.
func storeErr(err error) error {
	return fmt.Errorf("%w: store: %v", proto.ErrInternal, err)
}

// commit is the one way Vice's state changes. apply runs under the gate's
// write side — a handler's authorization and the change it authorizes are one
// hold — and what it did is appended to the journal under the same hold, so
// log order is apply order: what apply dirtied in the volume it returns, or
// rec when the change is not a volume's. The gate is released before the
// wait for the disk, where the paper's LWP would park, so slow fsyncs do not
// serialize independent operations and concurrent committers share one (the
// store's group commit). The change is durable before commit returns nil. A
// change apply gave up on is journalled as far as it got and apply's error
// returned; a caller whose change must not outlive a failed append undoes it.
func (s *Server) commit(apply func() (*volume.Volume, error), rec func(store.Store) error) error {
	st := s.cfg.Store
	s.gate.Lock()
	v, err := apply()
	var werr error
	logged := false
	switch {
	case st == nil:
	case v != nil:
		c := store.CommitOf(v)
		if logged = err == nil || len(c.Deletes)+len(c.Meta)+len(c.Data) > 0; logged {
			//itcvet:allowblocking Commit is a buffered append, not an fsync (Sync runs outside the gate); log order must match apply order
			werr = st.Commit(c)
		}
	case rec != nil && err == nil:
		logged, werr = true, rec(st)
	}
	s.gate.Unlock()
	if logged && werr == nil {
		werr = st.Sync()
	}
	if err != nil {
		return err // the operation itself failed; any partial effect is journalled
	}
	if werr != nil {
		return storeErr(werr)
	}
	return nil
}

// mutate is commit for a caller that already has the volume: fn changes v.
func (s *Server) mutate(v *volume.Volume, fn func() error) error {
	return s.commit(func() (*volume.Volume, error) { return v, fn() }, nil)
}

// attachVolume registers v locally, journalling its full image in the same
// hold so the volume exists durably before any mutation of it can be logged,
// and a checkpoint sees the volume and its BeginVolume record or neither.
func (s *Server) attachVolume(v *volume.Volume) error {
	if s.cfg.Store != nil {
		v.EnableDirtyTracking()
	}
	err := s.commit(func() (*volume.Volume, error) {
		s.setVolume(v.ID(), v)
		return nil, nil
	}, func(st store.Store) error { return st.BeginVolume(v.ID(), v.Serialize()) })
	if err != nil {
		s.setVolume(v.ID(), nil) // not durable, so not acked: it must not be visible either
	}
	return err
}

// detachVolume removes a volume locally and from the store (volume moves,
// and undo of a failed create).
func (s *Server) detachVolume(id uint32) error {
	return s.commit(func() (*volume.Volume, error) {
		s.setVolume(id, nil)
		return nil, nil
	}, func(st store.Store) error { return st.DropVolume(id) })
}

// setVolume enters v in the volume table, or with a nil v removes id.
func (s *Server) setVolume(id uint32, v *volume.Volume) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v == nil {
		delete(s.vols, id)
	} else {
		s.vols[id] = v
	}
}

// InstallLoc applies a location-database update locally and journals it.
// Loc.Install is last-writer-wins per prefix, so two installs applied in one
// order and journalled in the other would replay after a crash to a state
// the server never acknowledged: commit's one hold rules that out.
func (s *Server) InstallLoc(entries []proto.LocEntry, remove []string) error {
	return s.commit(func() (*volume.Volume, error) {
		s.cfg.Loc.Install(entries, remove)
		return nil, nil
	}, func(st store.Store) error { return st.PutLoc(entries, remove) })
}

// applyProt applies a protection-database mutation locally and journals it
// (prot mutations are order-sensitive). A mutation the database rejects is
// never journalled.
func (s *Server) applyProt(m prot.Mutation) error {
	return s.commit(func() (*volume.Volume, error) {
		if err := s.cfg.DB.Apply(m); err != nil {
			return nil, fmt.Errorf("%w: %v", proto.ErrBadRequest, err)
		}
		return nil, nil
	}, func(st store.Store) error { return st.PutProt(m) })
}

// RecoverStore loads the store's surviving state into the server: the
// protection database, the location database, and every volume (already
// salvaged by the engine, here fitted with the server's clock and dirty
// tracking). The store is checkpointed immediately so the replayed log is
// compacted away; a checkpoint the store refuses as too large is a note in the
// report, not an error. Unless the store was empty, the recovery report goes
// to the flight recorder as vice.salvage events and to the metrics registry.
// Call once, before serving.
func (s *Server) RecoverStore() (*store.Report, error) {
	st := s.cfg.Store
	if st == nil {
		return nil, nil
	}
	rec, err := st.Recover()
	if err != nil {
		return nil, err
	}
	rep := &rec.Report
	if rec.ProtSnapshot != nil {
		if err := s.cfg.DB.LoadSnapshot(rec.ProtSnapshot); err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("protection snapshot rejected: %v", err))
		}
	}
	for _, m := range rec.ProtMutations {
		if err := s.cfg.DB.Apply(m); err != nil {
			// Replay of an already-applied or stale mutation; the database
			// stays self-consistent, so note it and continue.
			rep.Notes = append(rep.Notes, fmt.Sprintf("protection mutation replay: %v", err))
		}
	}
	for _, op := range rec.LocOps {
		s.cfg.Loc.Install(op.Entries, op.Remove)
	}
	s.mu.Lock()
	for _, v := range rec.Volumes {
		v.SetClock(s.cfg.Clock)
		v.EnableDirtyTracking()
		s.vols[v.ID()] = v
	}
	s.mu.Unlock()
	// A compaction the store refuses changed nothing: the log it would have
	// replaced still holds every record, so the server serves, and says so.
	err = s.CheckpointStore()
	if errors.Is(err, store.ErrTooLarge) {
		rep.Notes = append(rep.Notes, fmt.Sprintf("log not compacted: %v", err))
		err = nil
	}
	// A store that held no checkpoint, no record and no torn tail has nothing
	// to report: a first boot leaves no trace beyond its checkpoint.
	if rec.ProtSnapshot == nil && rep.LastSeq == 0 && rep.DiscardedBytes == 0 && len(rep.Notes) == 0 {
		return rep, err
	}
	if fl := s.cfg.Flight; fl != nil {
		for _, line := range rep.Lines() {
			fl.Log(trace.EventViceSalvage, s.cfg.Name, line)
		}
	}
	if m := s.cfg.Metrics; m != nil {
		m.Counter(trace.MetricViceSalvageReplayed).Add(int64(rep.Replayed))
		m.Counter(trace.MetricViceSalvageDiscardedRecords).Add(int64(rep.DiscardedRecords))
		m.Counter(trace.MetricViceSalvageDiscardedBytes).Add(rep.DiscardedBytes)
		for _, vr := range rep.Volumes {
			m.Counter(trace.MetricViceSalvageOrphansRemoved).Add(int64(vr.Salvage.OrphansRemoved))
			m.Counter(trace.MetricViceSalvageDanglingEntries).Add(int64(vr.Salvage.DanglingEntries))
			m.Counter(trace.MetricViceSalvageLinksFixed).Add(int64(vr.Salvage.LinksFixed))
		}
	}
	return rep, err
}

// CheckpointStore writes a full snapshot of server state to the store and
// truncates its log. It holds the gate's write side for the duration, so the
// snapshot is a consistent cut: the store encodes the live volumes, which no
// mutation or read can reach until it returns.
func (s *Server) CheckpointStore() error {
	st := s.cfg.Store
	if st == nil {
		return nil
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	cp := store.Checkpoint{
		Prot: s.cfg.DB.Snapshot(),
		Loc:  s.cfg.Loc.Entries(),
	}
	s.mu.Lock()
	ids := make([]uint32, 0, len(s.vols))
	for id := range s.vols {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		cp.Volumes = append(cp.Volumes, s.vols[id])
	}
	s.mu.Unlock()
	//itcvet:allowblocking checkpoint quiesces mutations by design so the snapshot is a consistent cut
	return st.Checkpoint(cp)
}
