package vice

import (
	"fmt"
	"sort"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// Volume and protection administration. These operations are rare,
// human-initiated, and deliberately expensive when they touch the
// replicated databases: "changing the location database is relatively
// expensive because it involves updating all the cluster servers in the
// system" (§3.1). That cost is exactly what experiment E10 measures against
// negative-rights revocation.

// staffOnly and serverOnly wrap a handler, where it is registered, in the
// refusal its callers outside the operations staff (or outside the trust
// boundary) get before the request is even decoded.
func (s *Server) staffOnly(what string, h rpc.HandlerFunc) rpc.HandlerFunc {
	return func(ctx rpc.Ctx, req rpc.Request) rpc.Response {
		if !s.isAdmin(ctx.User) {
			return respErr(fmt.Errorf("%w: %s", proto.ErrNotAllowed, what))
		}
		return h(ctx, req)
	}
}

func serverOnly(h rpc.HandlerFunc) rpc.HandlerFunc {
	return func(ctx rpc.Ctx, req rpc.Request) rpc.Response {
		if ctx.User != ServerUser {
			return respErr(fmt.Errorf("%w: server-to-server only", proto.ErrNotAllowed))
		}
		return h(ctx, req)
	}
}

// callPeer is Vice's one route to another server: it calls the peer named
// name, turns a refusal into its proto error and releases the reply. The
// caller must not hold s.mu (peer calls park).
func (s *Server) callPeer(p *sim.Proc, name string, req rpc.Request) error {
	s.mu.Lock()
	peer, ok := s.peers[name]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: unknown server %s", proto.ErrBadRequest, name)
	}
	resp, err := peer.Call(p, req)
	if err == nil && !resp.OK() {
		err = proto.CodeToErr(resp.Code, string(resp.Body))
	}
	resp.Release()
	return err
}

// broadcast sends a request to every peer server, returning the first
// error. The caller must not hold s.mu (peer calls park).
func (s *Server) broadcast(p *sim.Proc, req rpc.Request) error {
	s.mu.Lock()
	names := make([]string, 0, len(s.peers))
	for name := range s.peers {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		if err := s.callPeer(p, name, req); err != nil {
			return fmt.Errorf("vice: broadcast to %s: %w", name, err)
		}
	}
	return nil
}

// installLoc applies a location update locally and on every peer.
func (s *Server) installLoc(p *sim.Proc, entries []proto.LocEntry, remove []string) error {
	if err := s.InstallLoc(entries, remove); err != nil {
		return err
	}
	return s.broadcast(p, rpc.Request{
		Op:   rpc.Op(proto.OpLocInstall),
		Body: proto.Marshal(proto.LocInstallArgs{Entries: entries, Remove: remove}),
	})
}

// handleVolCreate creates a volume on this server and mounts it at the
// requested path. The parent directory's volume must be local: the mount
// entry lives there. The new location row is pushed to every server.
func (s *Server) handleVolCreate(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeVolCreateArgs)
	if err != nil {
		return respErr(err)
	}
	if args.Path == "" || args.Name == "" {
		return respErr(fmt.Errorf("%w: name and path required", proto.ErrBadRequest))
	}
	parentPath, leaf := dirOfPath(args.Path)
	pv, pdir, err := s.resolvePathLocked(parentPath)
	if err != nil {
		return respErr(err)
	}
	acl := prot.NewACL()
	acl.Grant(args.Owner, prot.RightsAll)
	acl.Grant(prot.AnyUser, prot.RightLookup|prot.RightRead)
	id := s.cfg.AllocVolID()
	vol := volume.New(id, args.Name, acl, args.Quota, args.Owner, s.cfg.Clock)
	// Journal the volume's existence before the mount entry referring to it.
	if err := s.attachVolume(vol); err != nil {
		return respErr(err)
	}
	if err := s.mutate(pv, func() error { return pv.Mount(pdir, leaf, vol.Root()) }); err != nil {
		_ = s.detachVolume(id)
		return respErr(err)
	}
	le := proto.LocEntry{Prefix: args.Path, Volume: id, Custodian: s.cfg.Name}
	if err := s.installLoc(ctx.Proc, []proto.LocEntry{le}, nil); err != nil {
		return respErr(err)
	}
	s.callbacks.Break(ctx.Proc, nil, BreakTarget{FID: pdir, Path: parentPath})
	return s.volStatus(vol)
}

// handleVolClone freezes a read-only snapshot of a volume, optionally
// installs it on replica servers, and optionally mounts it. This is the
// orderly-release mechanism for system software (§3.2).
func (s *Server) handleVolClone(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeVolCloneArgs)
	if err != nil {
		return respErr(err)
	}
	src, err := s.localVolume(args.Volume)
	if err != nil {
		return respErr(err)
	}
	// Validate the replica set before any visible effect: an unknown server
	// name must fail the whole release, not leave a mounted release with a
	// replica that can never confirm.
	for _, rep := range args.Replicas {
		s.mu.Lock()
		_, havePeer := s.peers[rep]
		s.mu.Unlock()
		if !havePeer {
			return respErr(fmt.Errorf("%w: unknown replica server %s", proto.ErrBadRequest, rep))
		}
	}
	id := s.cfg.AllocVolID()
	s.gate.RLock()
	clone := src.Clone(id, src.Name()+".readonly")
	s.gate.RUnlock()
	if err := s.attachVolume(clone); err != nil {
		return respErr(err)
	}

	if args.Path != "" {
		parentPath, leaf := dirOfPath(args.Path)
		pv, pdir, err := s.resolvePathLocked(parentPath)
		if err != nil {
			return respErr(err)
		}
		// "The creation of a read-only subtree is an atomic operation,
		// thus providing a convenient mechanism to support the orderly
		// release of new system software" (§3.2): if the mount point is
		// already occupied by an earlier release, the new clone replaces
		// it in one step. The old clone volume stays installed (multiple
		// coexisting versions), merely unmounted from this name.
		err = s.mutate(pv, func() error {
			if old, lookErr := pv.Lookup(pdir, leaf); lookErr == nil && old.FID.Volume != pv.ID() {
				if err := pv.Unmount(pdir, leaf); err != nil {
					return err
				}
			}
			return pv.Mount(pdir, leaf, clone.Root())
		})
		if err != nil {
			return respErr(err)
		}
		le := proto.LocEntry{Prefix: args.Path, Volume: id, Custodian: s.cfg.Name, Replicas: args.Replicas}
		if err := s.installLoc(ctx.Proc, []proto.LocEntry{le}, nil); err != nil {
			return respErr(err)
		}
		s.callbacks.Break(ctx.Proc, nil, BreakTarget{FID: pdir, Path: parentPath})
	}

	// Ship the image to each replica, after the location entry naming the
	// replica set is journalled and broadcast: that entry is the durable
	// record of the release, and ResumeReleases ships it again after a crash
	// mid-release. Until a replica has the image, clients asking it for the
	// volume are redirected to the custodian (WrongServer), so the window is
	// visible only as an extra hop.
	if len(args.Replicas) > 0 {
		if err := s.release(ctx.Proc, clone, args.Replicas); err != nil {
			return respErr(err)
		}
	}
	return s.volStatus(clone)
}

// volStatus answers with v's status, read under the gate.
func (s *Server) volStatus(v *volume.Volume) rpc.Response {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return rpc.Reply(proto.VolStatusReply{
		Volume:   v.ID(),
		Name:     v.Name(),
		Quota:    v.Quota(),
		Used:     v.Used(),
		Online:   v.Online(),
		ReadOnly: v.ReadOnly(),
		Server:   s.cfg.Name,
	})
}

// resolvePathLocked is resolvePath for a caller between holds (volume
// administration): the walk reads directories, so it takes the read side.
func (s *Server) resolvePathLocked(path string) (*volume.Volume, proto.FID, error) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return s.resolvePath(path, true)
}

func (s *Server) handleVolStatus(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeVolStatusArgs)
	if err != nil {
		return respErr(err)
	}
	v, err := s.localVolume(args.Volume)
	if err != nil {
		return respErr(err)
	}
	return s.volStatus(v)
}

func (s *Server) handleVolSetQuota(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeVolSetQuotaArgs)
	if err != nil {
		return respErr(err)
	}
	v, err := s.localVolume(args.Volume)
	if err != nil {
		return respErr(err)
	}
	if err := s.mutate(v, func() error { v.SetQuota(args.Quota); return nil }); err != nil {
		return respErr(err)
	}
	return rpc.Response{}
}

func (s *Server) handleVolOnlineOffline(online bool) rpc.HandlerFunc {
	return func(ctx rpc.Ctx, req rpc.Request) rpc.Response {
		args, err := proto.Unmarshal(req.Body, proto.DecodeVolStatusArgs)
		if err != nil {
			return respErr(err)
		}
		v, err := s.localVolume(args.Volume)
		if err != nil {
			return respErr(err)
		}
		if err := s.mutate(v, func() error { v.SetOnline(online); return nil }); err != nil {
			return respErr(err)
		}
		return rpc.Response{}
	}
}

// handleVolMove reassigns a volume to another custodian: serialize, ship,
// delete locally, and update the location database everywhere. The files
// are unavailable during the change (§3.1).
func (s *Server) handleVolMove(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeVolMoveArgs)
	if err != nil {
		return respErr(err)
	}
	v, err := s.localVolume(args.Volume)
	if err != nil {
		return respErr(err)
	}
	s.mu.Lock()
	_, havePeer := s.peers[args.Target] // refused before the volume goes offline
	s.mu.Unlock()
	if !havePeer {
		return respErr(fmt.Errorf("%w: unknown server %s", proto.ErrBadRequest, args.Target))
	}
	le, found := s.cfg.Loc.ResolveVolume(args.Volume)
	if !found {
		return respErr(fmt.Errorf("%w: volume %d not in location database", proto.ErrStale, args.Volume))
	}

	if err := s.mutate(v, func() error { v.SetOnline(false); return nil }); err != nil { // unavailable during the change
		return respErr(err)
	}
	if err := s.callPeer(ctx.Proc, args.Target, s.installRequest(v)); err != nil {
		_ = s.mutate(v, func() error { v.SetOnline(true); return nil }) // move failed; restore service
		return respErr(err)
	}
	if err := s.detachVolume(args.Volume); err != nil {
		return respErr(err)
	}
	le.Custodian = args.Target
	if err := s.installLoc(ctx.Proc, []proto.LocEntry{le}, nil); err != nil {
		return respErr(err)
	}
	if fl := s.cfg.Flight; fl != nil {
		fl.Log(trace.EventViceVolumeMove, s.cfg.Name,
			fmt.Sprintf("volume %d (%s) handed to %s", args.Volume, v.Name(), args.Target))
	}
	return rpc.Response{}
}

// handleVolSalvage runs crash recovery on one volume (or, with volume 0,
// every local volume): "each volume may be … salvaged after a system
// crash" (§5.3). The reply is a proto.SalvageReply summed over them.
func (s *Server) handleVolSalvage(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeVolStatusArgs)
	if err != nil {
		return respErr(err)
	}
	var reports []volume.SalvageReport
	if args.Volume == 0 {
		all := s.SalvageAll()
		ids := make([]uint32, 0, len(all))
		for id := range all {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			reports = append(reports, all[id])
		}
	} else {
		v, err := s.localVolume(args.Volume)
		if err != nil {
			return respErr(err)
		}
		var rep volume.SalvageReport
		_ = s.mutate(v, func() error { rep = v.Salvage(); return nil }) // repairs applied in memory regardless
		reports = append(reports, rep)
	}
	var sum proto.SalvageReply
	for _, rep := range reports {
		sum.Orphans += rep.OrphansRemoved
		sum.Dangling += rep.DanglingEntries
		sum.Links += rep.LinksFixed
	}
	if fl := s.cfg.Flight; fl != nil {
		fl.Log(trace.EventViceSalvage, s.cfg.Name,
			fmt.Sprintf("volume %d: %d volumes scanned, %d orphans removed, %d dangling entries, %d links fixed",
				args.Volume, len(reports), sum.Orphans, sum.Dangling, sum.Links))
	}
	return rpc.Reply(sum)
}

// handleProtMutate is the protection server (§3.4): it validates the
// mutation, applies it authoritatively, and pushes it to every replica.
func (s *Server) handleProtMutate(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	if !s.cfg.ProtAuthority {
		return respErr(fmt.Errorf("%w: not the protection server", proto.ErrNotAllowed))
	}
	m, err := proto.Unmarshal(req.Body, prot.DecodeMutation)
	if err != nil {
		return respErr(err)
	}
	if err := s.applyProt(m); err != nil {
		return respErr(err)
	}
	if err := s.broadcast(ctx.Proc, rpc.Request{Op: rpc.Op(proto.OpProtInstall), Body: req.Body}); err != nil {
		return respErr(err)
	}
	var e wire.Encoder
	e.U64(s.cfg.DB.Version())
	return rpc.Response{Body: append([]byte(nil), e.Buf()...)}
}

func (s *Server) handleProtSnapshot(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	return rpc.Response{Bulk: s.cfg.DB.Snapshot()}
}

// Server-to-server installs. Only peers inside the trust boundary may call
// these.

func (s *Server) handleLocInstall(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeLocInstallArgs)
	if err != nil {
		return respErr(err)
	}
	if err := s.InstallLoc(args.Entries, args.Remove); err != nil {
		return respErr(err)
	}
	return rpc.Response{}
}

func (s *Server) handleVolInstall(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeVolInstallArgs)
	if err != nil {
		return respErr(err)
	}
	// Read-only installs are idempotent: a release's image for a volume ID
	// is immutable, so a retry (an interrupted release being resumed after
	// the custodian's WAL recovery) that finds the volume already attached
	// has nothing left to do. Without this, every resume would fail on the
	// replicas that DID confirm before the crash.
	if args.ReadOnly {
		if _, have := s.Volume(args.Volume); have {
			return rpc.Response{}
		}
	}
	vol, err := volume.Deserialize(req.Bulk, s.cfg.Clock)
	if err != nil {
		return respErr(fmt.Errorf("%w: %v", proto.ErrBadRequest, err))
	}
	vol.SetOnline(true)
	if err := s.attachVolume(vol); err != nil {
		return respErr(err)
	}
	return rpc.Response{}
}

func (s *Server) handleProtInstall(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	m, err := proto.Unmarshal(req.Body, prot.DecodeMutation)
	if err != nil {
		return respErr(err)
	}
	if err := s.applyProt(m); err != nil {
		return respErr(err)
	}
	return rpc.Response{}
}
