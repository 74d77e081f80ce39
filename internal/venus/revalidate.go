package venus

import (
	"sort"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// Batched revalidation (the client half of BulkTestValid): instead of one
// TestValid RPC per cached entry, a sweep asks each custodian about up to
// RevalidateBatch entries in one round trip. Sweeps run when a dead
// connection is dropped (the server may have restarted and lost its
// callback table) and when the workload asks for a periodic TTL sweep.

// DefaultRevalidateBatch is the sweep batch size when Config leaves
// RevalidateBatch zero.
const DefaultRevalidateBatch = 64

// revalCandidate is one cached entry a sweep must check, snapshotted
// outside the lock.
type revalCandidate struct {
	fid     proto.FID
	version uint64
	path    string
}

// Revalidate sweeps the cache, asking each custodian — in bulk — whether
// the clean, promise-holding entries are still current. force checks every
// such entry; otherwise only those whose promise has outlived CallbackTTL.
// Valid answers refresh the promise timestamp (the server re-promised in
// the same call); anything else invalidates the entry, sending the next
// open through the normal fetch path, which knows how to chase redirects.
// It returns how many entries were checked and how many proved stale; err
// reports the last custodian that could not be reached (entries it covered
// stay unrefreshed and fall back to per-open validation).
func (v *Venus) Revalidate(p *sim.Proc, force bool) (checked, stale int, err error) {
	sp := v.cfg.Tracer.Begin(p, trace.SpanVenusRevalidate, v.cfg.Machine)
	defer sp.End()
	v.mu.Lock()
	cands := make([]revalCandidate, 0, len(v.byFID))
	for fid, e := range v.byFID {
		if e.cacheFile == "" || e.dirty || !e.valid {
			continue
		}
		if !force && v.freshLocked(e, p) {
			continue
		}
		cands = append(cands, revalCandidate{fid: fid, version: e.status.Version, path: e.path})
	}
	v.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return fidLess(cands[i].fid, cands[j].fid) })
	if len(cands) == 0 {
		return 0, 0, nil
	}

	// Group by preferred server, keeping servers in the order their first
	// entry appears in the FID-sorted candidate list — deterministic. Each
	// group remembers the location entry of its first member, whose replica
	// order callAt fails over down: entries on a replicated read-only volume
	// may be validated against any replica (replicas of a release are
	// immutable and share the clone's versions), so when the preferred server
	// is unreachable the sweep fails over instead of leaving the whole group
	// unrefreshed.
	byServer := make(map[string][]revalCandidate)
	locs := make(map[string]proto.CustodianReply)
	var order []string
	for _, c := range cands {
		cr, lerr := v.locateVolume(p, c.fid.Volume, c.path)
		if lerr != nil {
			err = lerr
			continue
		}
		server := v.serverFor(cr, true)
		if _, ok := byServer[server]; !ok {
			order = append(order, server)
			locs[server] = cr
		}
		byServer[server] = append(byServer[server], c)
	}

	batch := v.cfg.RevalidateBatch
	if batch <= 0 {
		batch = DefaultRevalidateBatch
	}
	if batch > proto.MaxBulkItems {
		batch = proto.MaxBulkItems
	}
	for _, server := range order {
		items := byServer[server]
		for len(items) > 0 {
			chunk := items
			if len(chunk) > batch {
				chunk = chunk[:batch]
			}
			items = items[len(chunk):]
			n, st, cerr := v.revalidateChunk(p, locs[server], chunk)
			checked += n
			stale += st
			if cerr != nil {
				err = cerr
			}
		}
	}
	v.noteSweep(force, checked, stale, err)
	return checked, stale, err
}

// revalidateChunk checks one custodian's batch against the first reachable
// server in cr's replica order. A single-entry chunk uses the legacy
// TestValid call — so RevalidateBatch=1 reproduces the unbatched protocol
// exactly, which is what E14's ablation side measures.
func (v *Venus) revalidateChunk(p *sim.Proc, cr proto.CustodianReply, chunk []revalCandidate) (checked, stale int, err error) {
	v.mu.Lock()
	v.stats.Revalidated += int64(len(chunk))
	v.mu.Unlock()
	if len(chunk) == 1 {
		c := chunk[0]
		ok, cur, verr := v.testValid(p, proto.Ref{FID: c.fid}, c.version)
		if verr != nil {
			return 0, 0, verr
		}
		return 1, v.applyRevalidation(p, []revalCandidate{c},
			[]proto.TestValidReply{{Valid: ok, Version: cur}}), nil
	}
	args := proto.BulkTestValidArgs{Items: make([]proto.TestValidArgs, 0, len(chunk))}
	for _, c := range chunk {
		args.Items = append(args.Items, proto.TestValidArgs{Ref: proto.Ref{FID: c.fid}, Version: c.version})
	}
	reply, err := v.bulkTestValid(p, cr, args)
	if err != nil {
		return 0, 0, err
	}
	if len(reply.Items) != len(chunk) {
		return 0, 0, proto.ErrInternal
	}
	return len(chunk), v.applyRevalidation(p, chunk, reply.Items), nil
}

// applyRevalidation folds a batch's verdicts back into the cache. An entry
// that changed underneath the sweep (refetched, rewritten, or broken by a
// callback that raced the RPC) is left alone: the verdict describes a copy
// we no longer hold.
func (v *Venus) applyRevalidation(p *sim.Proc, chunk []revalCandidate, verdicts []proto.TestValidReply) (stale int) {
	now := rpc.Clock(p)
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, c := range chunk {
		e := v.byFID[c.fid]
		if e == nil || e.dirty || !e.valid || e.status.Version != c.version {
			continue
		}
		if verdicts[i].Valid {
			e.fetchedAt = now
		} else {
			e.valid = false
			stale++
		}
	}
	return stale
}

// bulkTestValid performs one BulkTestValid RPC through callAt, which walks
// cr's read-only server order: a dead connection is redialed and an
// unreachable server failed over exactly as for any other read. The redirect
// never fires: a custodian that no longer hosts an item answers Valid=false
// for it, and the next open's fetch chases the move. A read-only replica
// never breaks callbacks — its volumes are immutable — so a Valid answer from
// any replica is as good as the custodian's.
func (v *Venus) bulkTestValid(p *sim.Proc, cr proto.CustodianReply, args proto.BulkTestValidArgs) (proto.BulkTestValidReply, error) {
	sp := v.cfg.Tracer.Begin(p, trace.SpanVenusValidateBulk, v.cfg.Machine)
	defer sp.End()
	v.mu.Lock()
	v.stats.BulkValidations++
	v.mu.Unlock()
	resp, err := v.callAt(p, cr.Prefix, cr, newRequest(proto.OpBulkTestValid, args))
	if err != nil {
		return proto.BulkTestValidReply{}, err
	}
	defer resp.Release()
	if !resp.OK() {
		return proto.BulkTestValidReply{}, proto.CodeToErr(resp.Code, string(resp.Body))
	}
	return proto.Unmarshal(resp.Body, proto.DecodeBulkTestValidReply)
}

// fidLess orders FIDs by (volume, vnode, uniquifier).
func fidLess(a, b proto.FID) bool {
	if a.Volume != b.Volume {
		return a.Volume < b.Volume
	}
	if a.Vnode != b.Vnode {
		return a.Vnode < b.Vnode
	}
	return a.Uniq < b.Uniq
}
