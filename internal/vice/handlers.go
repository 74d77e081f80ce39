package vice

import (
	"fmt"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/trace"
	"itcfs/internal/unixfs"
	"itcfs/internal/volume"
)

// registerHandlers wires every Vice operation into the dispatcher. Each
// handler keeps the gate's rule (Server.gate) for itself — a handler that
// only reads holds the read side for its whole body, one that changes state
// does so through commit — and holds s.mu only across in-memory state
// transitions, so a handler worker never parks while holding a lock.
func (s *Server) registerHandlers() {
	h := s.disp.Handle
	h(rpc.Op(proto.OpFetch), s.handleFetch)
	h(rpc.Op(proto.OpStore), s.handleStore)
	h(rpc.Op(proto.OpFetchStatus), s.handleFetchStatus)
	h(rpc.Op(proto.OpSetStatus), s.handleSetStatus)
	h(rpc.Op(proto.OpTestValid), s.handleTestValid)
	h(rpc.Op(proto.OpBulkTestValid), s.handleBulkTestValid)
	h(rpc.Op(proto.OpCreate), s.handleCreate)
	h(rpc.Op(proto.OpMakeDir), s.handleMakeDir)
	h(rpc.Op(proto.OpRemove), s.handleRemove)
	h(rpc.Op(proto.OpRemoveDir), s.handleRemoveDir)
	h(rpc.Op(proto.OpRename), s.handleRename)
	h(rpc.Op(proto.OpSymlink), s.handleSymlink)
	h(rpc.Op(proto.OpLink), s.handleLink)
	h(rpc.Op(proto.OpSetACL), s.handleSetACL)
	h(rpc.Op(proto.OpGetACL), s.handleGetACL)
	h(rpc.Op(proto.OpSetLock), s.handleSetLock)
	h(rpc.Op(proto.OpReleaseLock), s.handleReleaseLock)
	h(rpc.Op(proto.OpGetCustodian), s.handleGetCustodian)
	h(rpc.Op(proto.OpVolCreate), s.staffOnly("volume creation is operations-staff only", s.handleVolCreate))
	h(rpc.Op(proto.OpVolClone), s.staffOnly("cloning is operations-staff only", s.handleVolClone))
	h(rpc.Op(proto.OpVolStatus), s.handleVolStatus)
	h(rpc.Op(proto.OpVolSetQuota), s.staffOnly("quota changes are operations-staff only", s.handleVolSetQuota))
	h(rpc.Op(proto.OpVolOffline), s.staffOnly("operations-staff only", s.handleVolOnlineOffline(false)))
	h(rpc.Op(proto.OpVolOnline), s.staffOnly("operations-staff only", s.handleVolOnlineOffline(true)))
	h(rpc.Op(proto.OpVolMove), s.staffOnly("volume moves are operations-staff only", s.handleVolMove))
	h(rpc.Op(proto.OpVolSalvage), s.staffOnly("salvage is operations-staff only", s.handleVolSalvage))
	h(rpc.Op(proto.OpProtMutate), s.staffOnly("protection changes are operations-staff only", s.handleProtMutate))
	h(rpc.Op(proto.OpProtSnapshot), s.staffOnly("operations-staff only", s.handleProtSnapshot))
	h(rpc.Op(proto.OpLocInstall), serverOnly(s.handleLocInstall))
	h(rpc.Op(proto.OpVolInstall), serverOnly(s.handleVolInstall))
	h(rpc.Op(proto.OpProtInstall), serverOnly(s.handleProtInstall))
}

// refUse says what a handler asks of the prologue beyond the right it needs.
type refUse uint8

const (
	// counted marks a hot-path operation: the access is recorded per volume
	// and per calling node (noteAccess).
	counted refUse = 1 << iota
	// dirOnly requires the Ref to name a directory, whose own access list
	// governs; without it a file is governed by its parent directory's.
	dirOnly
	// noFollow leaves a final symbolic link unfollowed (prototype paths).
	noFollow
)

// governed is the first half of every file-system handler's prologue: it
// resolves the Ref, records the access where the handler asks for that, and
// returns the access list governing the object.
func (s *Server) governed(ctx rpc.Ctx, ref proto.Ref, use refUse) (*volume.Volume, proto.FID, prot.ACL, error) {
	v, fid, err := s.resolveRef(ref, use&noFollow == 0)
	if err != nil {
		return nil, fid, prot.ACL{}, err
	}
	if use&counted != 0 {
		s.noteAccess(ctx, v.ID())
	}
	var acl prot.ACL
	if use&dirOnly != 0 {
		acl, err = v.GetACL(fid)
	} else {
		acl, err = v.GoverningACL(fid)
	}
	return v, fid, acl, err
}

// authorize is the whole prologue: governed, then the rights check. Every
// handler whose needed right is known before the object is read calls it;
// fetch and TestValid, whose right depends on the vnode's type, call
// governed and check for themselves (readRight).
func (s *Server) authorize(ctx rpc.Ctx, ref proto.Ref, need prot.Right, use refUse) (*volume.Volume, proto.FID, error) {
	v, fid, acl, err := s.governed(ctx, ref, use)
	if err != nil {
		return nil, fid, err
	}
	return v, fid, s.checkRights(ctx.User, acl, need)
}

// readRight is the right that lets a caller hold a copy of vn: lookup for a
// directory's listing, read for anything else.
func readRight(vn *volume.Vnode) prot.Right {
	if vn.Status.Type == proto.TypeDir {
		return prot.RightLookup
	}
	return prot.RightRead
}

// handleFetch serves a whole-file (or directory-listing) fetch. In revised
// mode a successful fetch leaves a callback promise for the connection.
func (s *Server) handleFetch(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeFetchArgs)
	if err != nil {
		return respErr(err)
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	v, fid, acl, err := s.governed(ctx, args.Ref, counted)
	if err != nil {
		return respErr(err)
	}
	data, vn, err := v.ReadData(fid)
	if err != nil {
		return respErr(err)
	}
	if err := s.checkRights(ctx.User, acl, readRight(vn)); err != nil {
		return respErr(err)
	}
	s.mu.Lock()
	s.fetchBytes += int64(len(data))
	s.mu.Unlock()
	if !v.ReadOnly() {
		// Read-only clones can never be invalid, so no promise is needed
		// (caching from read-only subtrees is simplified, §3.2). Any other
		// promise is made under the hold that read the version it covers.
		s.callbacks.Promise(fid, ctx.Back)
	}
	resp := rpc.Reply(vn.Status)
	resp.Bulk = data
	return resp
}

// handleStore accepts a whole-file store on close. It breaks callbacks to
// every other workstation caching the file before the reply, so "changes by
// one user are immediately visible to all other users" (§3.2).
func (s *Server) handleStore(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeStoreArgs)
	if err != nil {
		return respErr(err)
	}
	var st status // the version this store produced
	err = s.commit(func() (*volume.Volume, error) {
		v, fid, err := s.authorize(ctx, args.Ref, prot.RightWrite, counted)
		if err != nil {
			return nil, err
		}
		vn, err := v.Get(fid)
		if err != nil {
			return nil, err
		}
		if s.cfg.Mode == Revised && ctx.User != ServerUser && vn.Status.Mode&0o222 == 0 {
			// Per-file protection bits (§5.1): a file with no write bits cannot
			// be overwritten even by holders of directory write rights.
			return nil, fmt.Errorf("%w: file mode %04o forbids writing", proto.ErrAccess, vn.Status.Mode)
		}
		if req.Owned {
			return v, st.of(v.WriteData(fid, req.Bulk))
		}
		return v, st.of(v.WriteCopy(fid, req.Bulk))
	}, nil)
	if err != nil {
		return respErr(err)
	}
	s.mu.Lock()
	s.storeBytes += int64(len(req.Bulk))
	s.mu.Unlock()
	s.callbacks.Break(ctx.Proc, ctx.Back, BreakTarget{FID: st.FID, Path: args.Ref.Path})
	s.promiseIfStands(ctx, st.Status, args.Ref.Path)
	return respStatus(st.Status)
}

// promiseIfStands leaves an updater the promise on the version its reply
// carries, which its cache now holds — unless another update slipped in
// while the first was breaking callbacks (Break parks the worker), when the
// updater is told so instead and no client is left believing a stale copy
// valid. The version is read and the promise made under one hold.
func (s *Server) promiseIfStands(ctx rpc.Ctx, st proto.Status, path string) {
	s.gate.RLock()
	stands := false
	if v, ok := s.Volume(st.FID.Volume); ok {
		cur, err := v.Get(st.FID)
		stands = err == nil && cur.Status.Version == st.Version
	}
	if stands {
		s.callbacks.Promise(st.FID, ctx.Back)
	}
	s.gate.RUnlock()
	if !stands {
		s.callbacks.revoke(ctx.Proc, ctx.Back, proto.CallbackBreakArgs{FID: st.FID, Path: path})
	}
}

// status carries a vnode's status out of the hold that read it: a
// *volume.Vnode is updated in place and must not leave one.
type status struct{ proto.Status }

// of keeps vn's status if the operation that returned it succeeded (and
// made one).
func (st *status) of(vn *volume.Vnode, err error) error {
	if err == nil && vn != nil {
		st.Status = vn.Status
	}
	return err
}

func (s *Server) handleFetchStatus(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeStatusArgs)
	if err != nil {
		return respErr(err)
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	v, fid, err := s.authorize(ctx, args.Ref, prot.RightLookup, counted|noFollow)
	if err != nil {
		return respErr(err)
	}
	vn, err := v.Get(fid)
	if err != nil {
		return respErr(err)
	}
	return respStatus(vn.Status)
}

func (s *Server) handleSetStatus(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeSetStatusArgs)
	if err != nil {
		return respErr(err)
	}
	var st status
	err = s.commit(func() (*volume.Volume, error) {
		v, fid, err := s.authorize(ctx, args.Ref, prot.RightWrite, 0)
		if err != nil {
			return nil, err
		}
		if args.SetOwner && !s.isAdmin(ctx.User) {
			return nil, fmt.Errorf("%w: only operations staff may change owners", proto.ErrNotAllowed)
		}
		if args.SetMode {
			if err := v.SetMode(fid, args.Mode); err != nil {
				return v, err
			}
		}
		if args.SetOwner {
			if err := v.SetOwner(fid, args.Owner); err != nil {
				return v, err
			}
		}
		return v, st.of(v.Get(fid))
	}, nil)
	if err != nil {
		return respErr(err)
	}
	s.callbacks.Break(ctx.Proc, ctx.Back, BreakTarget{FID: st.FID, Path: args.Ref.Path})
	return respStatus(st.Status)
}

// handleTestValid is the prototype's cache-validity check: the call that
// dominated the prototype server's workload (65% of all calls, §5.2).
func (s *Server) handleTestValid(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeTestValidArgs)
	if err != nil {
		return respErr(err)
	}
	reply, err := s.testValid(ctx, args)
	if err != nil {
		return respErr(err)
	}
	return rpc.Reply(reply)
}

// handleBulkTestValid validates a batch of cached copies in one round trip:
// the reconnection and TTL-sweep revalidation storms collapse from one call
// per cached entry to one call per custodian. The reply's items correspond
// one-to-one with the request's; any per-item failure (stale, moved,
// missing, access revoked) reads as Valid=false, sending the client back
// through the normal fetch path, which knows how to chase redirects.
func (s *Server) handleBulkTestValid(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeBulkTestValidArgs)
	if err != nil {
		return respErr(err)
	}
	if len(args.Items) > proto.MaxBulkItems {
		return respErr(fmt.Errorf("%w: bulk batch of %d exceeds %d",
			proto.ErrBadRequest, len(args.Items), proto.MaxBulkItems))
	}
	reply := proto.BulkTestValidReply{Items: make([]proto.TestValidReply, 0, len(args.Items))}
	for _, it := range args.Items {
		one, _ := s.testValid(ctx, it) // a failure is the zero reply: Valid=false
		reply.Items = append(reply.Items, one)
	}
	return rpc.Reply(reply)
}

// testValid validates one cached copy, for the single call and for each item
// of the bulk one. On an error the reply is the zero value.
func (s *Server) testValid(ctx rpc.Ctx, args proto.TestValidArgs) (proto.TestValidReply, error) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	v, fid, acl, err := s.governed(ctx, args.Ref, counted)
	if err != nil {
		return proto.TestValidReply{}, err
	}
	vn, err := v.Get(fid)
	if err != nil {
		return proto.TestValidReply{}, err
	}
	// Validation is the gate to a cached copy, so it enforces the same
	// rights a fetch would: otherwise revocation (negative rights) would
	// never catch up with workstations holding cached data.
	if err := s.checkRights(ctx.User, acl, readRight(vn)); err != nil {
		return proto.TestValidReply{}, err
	}
	reply := proto.TestValidReply{
		Valid:   vn.Status.Version == args.Version,
		Version: vn.Status.Version,
	}
	if reply.Valid && !v.ReadOnly() {
		// A revised-mode client revalidating an expired promise gets a new
		// one: this is how the callback table is rebuilt after a server
		// restart wipes it (§3.3 recovery).
		s.callbacks.Promise(fid, ctx.Back)
	}
	return reply, nil
}

// mutateDir is the one body of a mutation of a single directory: the caller
// must hold need on ref, which must name a directory; op runs in the same
// hold, under the journalling discipline of commit; then every other holder
// of a promise on the directory is told. What each handler keeps is its
// decoding, its own checks and its reply; the status returned is that of the
// vnode op made, if it made one.
func (s *Server) mutateDir(ctx rpc.Ctx, ref proto.Ref, need prot.Right, op func(v *volume.Volume, dir proto.FID) (*volume.Vnode, error)) (proto.Status, error) {
	var dir proto.FID
	var st status
	err := s.commit(func() (v *volume.Volume, err error) {
		if v, dir, err = s.authorize(ctx, ref, need, dirOnly); err != nil {
			return nil, err
		}
		return v, st.of(op(v, dir))
	}, nil)
	if err == nil {
		s.callbacks.Break(ctx.Proc, ctx.Back, BreakTarget{FID: dir, Path: ref.Path})
	}
	return st.Status, err
}

// respNew answers a mutation that made a vnode: its status, or the error.
func respNew(st proto.Status, err error) rpc.Response {
	if err != nil {
		return respErr(err)
	}
	return respStatus(st)
}

func (s *Server) handleCreate(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeNameArgs)
	if err != nil {
		return respErr(err)
	}
	st, err := s.mutateDir(ctx, args.Dir, prot.RightInsert, func(v *volume.Volume, dir proto.FID) (*volume.Vnode, error) {
		return v.Create(dir, args.Name, args.Mode, ctx.User)
	})
	if err == nil {
		s.promiseIfStands(ctx, st, "")
	}
	return respNew(st, err)
}

func (s *Server) handleMakeDir(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeNameArgs)
	if err != nil {
		return respErr(err)
	}
	return respNew(s.mutateDir(ctx, args.Dir, prot.RightInsert, func(v *volume.Volume, dir proto.FID) (*volume.Vnode, error) {
		return v.MakeDir(dir, args.Name, args.Mode, ctx.User)
	}))
}

func (s *Server) handleRemove(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	return s.removeCommon(ctx, req, false)
}

func (s *Server) handleRemoveDir(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	return s.removeCommon(ctx, req, true)
}

func (s *Server) removeCommon(ctx rpc.Ctx, req rpc.Request, isDir bool) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeNameArgs)
	if err != nil {
		return respErr(err)
	}
	targets := make([]BreakTarget, 0, 2)
	err = s.commit(func() (*volume.Volume, error) {
		v, dir, err := s.authorize(ctx, args.Dir, prot.RightDelete, dirOnly)
		if err != nil {
			return nil, err
		}
		targets = append(targets, BreakTarget{FID: dir, Path: args.Dir.Path})
		if victim, err := v.Lookup(dir, args.Name); err == nil {
			targets = append(targets, BreakTarget{FID: victim.FID})
		}
		if isDir {
			return v, v.RemoveDir(dir, args.Name)
		}
		return v, v.Remove(dir, args.Name)
	}, nil)
	if err != nil {
		return respErr(err)
	}
	s.callbacks.Break(ctx.Proc, ctx.Back, targets...)
	return rpc.Response{}
}

func (s *Server) handleRename(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeRenameArgs)
	if err != nil {
		return respErr(err)
	}
	targets := make([]BreakTarget, 0, 2)
	err = s.commit(func() (*volume.Volume, error) {
		v, from, err := s.authorize(ctx, args.FromDir, prot.RightDelete, dirOnly)
		if err != nil {
			return nil, err
		}
		v2, to, err := s.authorize(ctx, args.ToDir, prot.RightInsert, dirOnly)
		if err != nil {
			return nil, err
		}
		if v != v2 {
			return nil, fmt.Errorf("%w: rename across volumes", proto.ErrBadRequest)
		}
		targets = append(targets, BreakTarget{FID: from, Path: args.FromDir.Path})
		if from != to {
			targets = append(targets, BreakTarget{FID: to, Path: args.ToDir.Path})
		}
		return v, v.Rename(from, args.FromName, to, args.ToName)
	}, nil)
	if err != nil {
		return respErr(err)
	}
	s.callbacks.Break(ctx.Proc, ctx.Back, targets...)
	return rpc.Response{}
}

func (s *Server) handleSymlink(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeSymlinkArgs)
	if err != nil {
		return respErr(err)
	}
	return respNew(s.mutateDir(ctx, args.Dir, prot.RightInsert, func(v *volume.Volume, dir proto.FID) (*volume.Vnode, error) {
		return v.Symlink(dir, args.Name, args.Target)
	}))
}

func (s *Server) handleLink(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeLinkArgs)
	if err != nil {
		return respErr(err)
	}
	// The refusal of a link across volumes needs the directory's volume, so
	// it is made where the body hands that over.
	_, err = s.mutateDir(ctx, args.Dir, prot.RightInsert, func(v *volume.Volume, dir proto.FID) (*volume.Vnode, error) {
		vt, target, err := s.resolveRef(args.Target, true)
		if err != nil {
			return nil, err
		}
		if v != vt {
			return nil, fmt.Errorf("%w: hard link across volumes", proto.ErrBadRequest)
		}
		return nil, v.Link(dir, args.Name, target)
	})
	if err != nil {
		return respErr(err)
	}
	return rpc.Response{}
}

func (s *Server) handleSetACL(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeACLArgs)
	if err != nil {
		return respErr(err)
	}
	newACL, err := proto.ACLDecode(args.ACL)
	if err != nil {
		return respErr(err)
	}
	_, err = s.mutateDir(ctx, args.Dir, prot.RightAdmin, func(v *volume.Volume, dir proto.FID) (*volume.Vnode, error) {
		return nil, v.SetACL(dir, newACL)
	})
	if err != nil {
		return respErr(err)
	}
	return rpc.Response{}
}

func (s *Server) handleGetACL(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeACLArgs)
	if err != nil {
		return respErr(err)
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	v, dir, err := s.authorize(ctx, args.Dir, prot.RightLookup, dirOnly)
	if err != nil {
		return respErr(err)
	}
	acl, err := v.GetACL(dir)
	if err != nil {
		return respErr(err)
	}
	return rpc.Response{Body: proto.ACLEncode(acl)}
}

func (s *Server) handleSetLock(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeLockArgs)
	if err != nil {
		return respErr(err)
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	_, fid, err := s.authorize(ctx, args.Ref, prot.RightLock, 0)
	if err != nil {
		return respErr(err)
	}
	if err := s.locks.Lock(fid, ctx.User, args.Exclusive); err != nil {
		// Advisory locks never block (§3.4): a busy lock is refused, so the
		// observable contention signal is the conflict count, not a wait time.
		s.cfg.Metrics.Counter(trace.MetricViceLockConflicts).Inc()
		return respErr(err)
	}
	return rpc.Response{}
}

func (s *Server) handleReleaseLock(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeLockArgs)
	if err != nil {
		return respErr(err)
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	_, fid, err := s.resolveRef(args.Ref, true)
	if err != nil {
		return respErr(err)
	}
	if err := s.locks.Unlock(fid, ctx.User); err != nil {
		return respErr(err)
	}
	return rpc.Response{}
}

// handleGetCustodian answers location queries from workstations. Any server
// can answer any query: the location database is replicated everywhere.
func (s *Server) handleGetCustodian(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeCustodianArgs)
	if err != nil {
		return respErr(err)
	}
	le, ok := s.cfg.Loc.Resolve(args.Path)
	if !ok {
		return respErr(fmt.Errorf("%w: no volume covers %s", proto.ErrNoEnt, args.Path))
	}
	return rpc.Reply(le)
}

// dirOfPath returns the parent path and leaf name for mount placement.
func dirOfPath(path string) (string, string) {
	return unixfs.Dir(path), unixfs.Base(path)
}
