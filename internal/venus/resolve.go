package venus

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/unixfs"
	"itcfs/internal/wire"
)

// Routing: Venus caches custodianship information and uses it as hints
// (§3.1). A request sent to the wrong server comes back with the identity
// of the right one; Venus updates its hint and retries. Read-only-eligible
// operations on replicated volumes additionally fail over down a
// deterministic replica order when a server is unreachable.

const maxRedirects = 4

// failoverBackoff is the pause before trying the next replica after a
// server in the fallback order proved unreachable, doubling per hop: virtual
// time on a simulated station, wall time on a real one (rpc.Sleep). It
// spaces the retries of a workstation storm out without approaching the
// transport's own timeout scale.
const failoverBackoff = 5 * time.Millisecond

// conn returns (dialing if necessary) a connection to server. A connection
// that can report its own end (a Peer's Done; a simulated one cannot) is
// watched, and dropped when it ends while still the current one: a server
// that hung up has dropped the promises made on it, so no cached copy may be
// trusted until the sweep dropConn schedules.
func (v *Venus) conn(p *sim.Proc, server string) (Conn, error) {
	v.mu.Lock()
	c := v.conns[server]
	user := v.user
	v.mu.Unlock()
	if c != nil {
		return c, nil
	}
	if user == "" {
		return nil, fmt.Errorf("%w: no user logged in", proto.ErrAccess)
	}
	c, err := v.cfg.Connect(p, server)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	v.conns[server] = c
	v.mu.Unlock()
	if d, ok := c.(interface{ Done() <-chan struct{} }); ok {
		go func() {
			<-d.Done()
			v.dropConn(server, c)
		}()
	}
	return c, nil
}

// locate finds the location entry covering path, consulting the cached
// hints first and the home cluster server on a miss.
func (v *Venus) locate(p *sim.Proc, path string) (proto.CustodianReply, error) {
	path = unixfs.Clean(path)
	v.mu.Lock()
	cr, ok := v.locateLocked(path)
	v.mu.Unlock()
	if ok {
		return cr, nil
	}
	return v.askCustodian(p, path)
}

// locateLocked finds the cached location hint for the deepest prefix of the
// clean path that has one.
//
//itcvet:holds mu
func (v *Venus) locateLocked(path string) (proto.CustodianReply, bool) {
	for probe := path; ; probe = unixfs.Dir(probe) {
		if cr, ok := v.pathLoc[probe]; ok {
			return cr, true
		}
		if probe == "/" {
			return proto.CustodianReply{}, false
		}
	}
}

// askCustodian asks the home cluster server which volume covers path and who
// holds it, and caches the answer under both of its keys. The question goes
// through callAt like any other call, so a home server that restarted is
// redialed rather than asked again on the connection that died with it.
func (v *Venus) askCustodian(p *sim.Proc, path string) (proto.CustodianReply, error) {
	v.mu.Lock()
	v.stats.OtherRPCs++
	v.mu.Unlock()
	resp, err := v.callAt(p, path, proto.CustodianReply{Custodian: v.cfg.HomeServer},
		newRequest(proto.OpGetCustodian, proto.CustodianArgs{Path: path}))
	if err != nil {
		return proto.CustodianReply{}, err
	}
	defer resp.Release()
	if !resp.OK() {
		return proto.CustodianReply{}, proto.CodeToErr(resp.Code, string(resp.Body))
	}
	cr, err := proto.Unmarshal(resp.Body, proto.DecodeLocEntry)
	if err != nil {
		return proto.CustodianReply{}, err
	}
	v.mu.Lock()
	v.pathLoc[cr.Prefix] = cr
	v.volLoc[cr.Volume] = cr
	v.mu.Unlock()
	return cr, nil
}

// serverOrder returns every server worth asking for a location entry, in
// preference order. Mutations and unreplicated volumes go only to the
// custodian. For a read-only-eligible operation on a replicated volume the
// order is deterministic and documented:
//
//  1. the home cluster server, when it carries a replica or is the
//     custodian ("localize if possible", §4);
//  2. the custodian (its copy is authoritative);
//  3. the remaining replicas in lexicographic order.
//
// Duplicates are dropped. callAt fails over down this list when a server is
// unreachable, so every workstation with the same home server walks the same
// order — deterministic under the simulator and pinned by unit test.
func (v *Venus) serverOrder(cr proto.CustodianReply, readOnlyOK bool) []string {
	if !readOnlyOK || len(cr.Replicas) == 0 {
		return []string{cr.Custodian}
	}
	order := make([]string, 0, len(cr.Replicas)+2)
	seen := func(s string) bool {
		for _, have := range order {
			if have == s {
				return true
			}
		}
		return false
	}
	order = append(order, v.serverFor(cr, readOnlyOK))
	if !seen(cr.Custodian) {
		order = append(order, cr.Custodian)
	}
	reps := append([]string(nil), cr.Replicas...)
	sort.Strings(reps)
	for _, rep := range reps {
		if rep != "" && !seen(rep) {
			order = append(order, rep)
		}
	}
	return order
}

// serverFor picks the preferred server for a location entry — the head of
// serverOrder, found without building the list: it is all a call needs
// unless that server turns out to be unreachable.
func (v *Venus) serverFor(cr proto.CustodianReply, readOnlyOK bool) string {
	if readOnlyOK && v.cfg.HomeServer != cr.Custodian {
		for _, rep := range cr.Replicas {
			if rep == v.cfg.HomeServer {
				return rep
			}
		}
	}
	return cr.Custodian
}

func readOp(op rpc.Op) bool {
	switch uint16(op) {
	case proto.OpFetch, proto.OpFetchStatus, proto.OpTestValid,
		proto.OpBulkTestValid, proto.OpGetACL:
		return true
	}
	return false
}

// locateVolume finds the location entry for a specific volume. Unlike
// locate, a cached path prefix is not good enough: a mount-point crossing
// means the path cache's entry names the wrong (parent) volume, so on a
// miss the home server is asked about the full path, whose answer names the
// deepest prefix and its replicas. When the hint path did not land in the
// volume (renamed mount?) the reply is used anyway — the wrong-server redirect
// corrects the rest.
func (v *Venus) locateVolume(p *sim.Proc, vol uint32, pathHint string) (proto.CustodianReply, error) {
	v.mu.Lock()
	cr, ok := v.volLoc[vol]
	v.mu.Unlock()
	if ok {
		return cr, nil
	}
	return v.askCustodian(p, pathHint)
}

// A request is a call Venus places: an rpc.Request whose Body lies in a
// pooled encoder. The Body is lent to the call — every attempt, redial and
// redirect callAt makes of it — and callAt gives the encoder back when it
// returns, because a Conn reads a request only until Call returns
// (rpc.TestRequestBulkIsReadOnlyUntilCallReturns). A request that never
// reaches callAt (its volume could not be located) is simply collected.
type request struct {
	rpc.Request
	args *wire.Encoder // where Body lies
}

// newRequest is a call of op whose arguments are m: the one place Venus
// encodes a request's Body.
func newRequest[M wire.Message](op uint16, m M) request {
	e := wire.MarshalPooled(m)
	return request{Request: rpc.Request{Op: rpc.Op(op), Body: e.Buf()}, args: e}
}

// callRef routes by FID when the reference has one, else by path, following
// wrong-server hints. pathHint is used for location lookups of FID refs
// whose volume is unknown.
func (v *Venus) callRef(p *sim.Proc, ref proto.Ref, pathHint string, req request) (rpc.Response, error) {
	var cr proto.CustodianReply
	var err error
	if ref.ByFID() {
		cr, err = v.locateVolume(p, ref.FID.Volume, pathHint)
	} else {
		cr, err = v.locate(p, ref.Path)
	}
	if err != nil {
		return rpc.Response{}, err
	}
	return v.callAt(p, pathHint, cr, req)
}

// call is the simple-call path, the one home of three steps every plain
// operation takes: count the RPC (under the counter its op belongs to), route
// it by ref, and turn a reply the server refused into its proto error — the
// reply comes back too, for callers that read its code, and the caller
// releases it whatever the error.
func (v *Venus) call(p *sim.Proc, ref proto.Ref, pathHint string, req request) (rpc.Response, error) {
	v.mu.Lock()
	switch uint16(req.Op) {
	case proto.OpTestValid:
		v.stats.Validations++
	case proto.OpFetchStatus:
		v.stats.StatRPCs++
	default:
		v.stats.OtherRPCs++
	}
	v.mu.Unlock()
	resp, err := v.callRef(p, ref, pathHint, req)
	if err == nil && !resp.OK() {
		err = proto.CodeToErr(resp.Code, string(resp.Body))
	}
	return resp, err
}

// callAt is Venus's one route to a server: every call, location lookups and
// revalidation sweeps included, is made here and nowhere else. It performs
// the call against the first reachable server in cr's serverOrder for req,
// retrying at the hinted custodian on CodeWrongServer (stale hints are
// corrected, not fatal). A transport failure drops the dead connection (a
// simulated one reports no end of its own, so nothing else would), and under
// ReconnectRetries redials and re-issues the call — this is how Venus
// survives a server that crashed and restarted, losing every connection it
// had accepted. When the current server stays unreachable after
// its redial budget, the call fails over to the next server in the fallback
// order (read-only replicas of the same volume), with a short doubling
// backoff between hops — a crashed custodian blacks nothing out as long as
// one replica survives. It gives req's encoder back when it returns.
func (v *Venus) callAt(p *sim.Proc, path string, cr proto.CustodianReply, req request) (rpc.Response, error) {
	defer wire.PutEncoder(req.args)
	redials, redirects := 0, 0
	// The fallback order is built by the first failover: nearly every call
	// is answered by the head of it.
	readOnlyOK := readOp(req.Op)
	server := v.serverFor(cr, readOnlyOK)
	var servers []string
	si := 0
	// failNext advances to the next fallback server, reporting whether one
	// exists.
	failNext := func(err error) bool {
		if servers == nil {
			servers = v.serverOrder(cr, readOnlyOK)
		}
		if si+1 >= len(servers) {
			return false
		}
		rpc.Sleep(p, failoverBackoff<<uint(si))
		si++
		v.mu.Lock()
		v.stats.Failovers++
		v.mu.Unlock()
		v.mFailover.Inc()
		if fl := v.cfg.Flight; fl != nil {
			fl.Log(trace.EventVenusFailover, v.cfg.Machine,
				fmt.Sprintf("%s unreachable (%v), trying replica %s", server, err, servers[si]))
		}
		server = servers[si]
		redials = 0
		return true
	}
	for {
		c, err := v.conn(p, server)
		if err != nil {
			if isRedialable(err) && redials < v.cfg.ReconnectRetries {
				redials++
				continue
			}
			if isTransportErr(err) && failNext(err) {
				continue
			}
			return rpc.Response{}, err
		}
		resp, err := c.Call(p, req.Request)
		if err != nil {
			if isTransportErr(err) && redials < v.cfg.ReconnectRetries {
				// The connection is dead; a fresh one is outside the
				// transport's at-most-once window, so the re-issued request
				// may execute twice: the call is at-least-once. A re-issued
				// Remove can delete a file another station created in the
				// meantime (ROADMAP item 16).
				v.dropConn(server, c)
				redials++
				continue
			}
			if isTransportErr(err) {
				v.dropConn(server, c)
				if failNext(err) {
					continue
				}
			}
			return rpc.Response{}, err
		}
		if resp.Code != proto.CodeWrongServer {
			return resp, nil
		}
		// Stale hint: drop it and follow the custodian the server named.
		// The redirect target replaces the fallback order — the hinting
		// server is authoritative about who holds the volume now.
		hinted := string(resp.Body)
		v.mu.Lock()
		delete(v.pathLoc, cr.Prefix)
		delete(v.volLoc, cr.Volume)
		v.mu.Unlock()
		if hinted == "" || hinted == server {
			return resp, nil
		}
		resp.Release()
		if redirects++; redirects >= maxRedirects {
			return rpc.Response{}, fmt.Errorf("%w: too many custodian redirects for %s", proto.ErrInternal, path)
		}
		servers = []string{hinted}
		si, server, redials = 0, hinted, 0
	}
}

// dropConn discards a dead connection so the next call redials. Only the
// drop that finds c still current counts it and schedules the sweep: a
// concurrent caller may already have replaced it, or a failed call and the
// watcher conn started may both drop it.
func (v *Venus) dropConn(server string, c Conn) {
	v.mu.Lock()
	if v.conns[server] == c {
		delete(v.conns, server)
		v.stats.Reconnects++
		// The other end may be a restarted server with an empty callback
		// table: schedule a bulk revalidation sweep before the next open
		// trusts a promise (§3.3 recovery, batched).
		v.sweepPending = true
	}
	v.mu.Unlock()
	if cl, ok := c.(io.Closer); ok {
		cl.Close() // both carriers: a Peer's read loop and workers end here
	}
}

// Resolve translates a Vice pathname to a FID by traversing cached
// directories — the revised implementation's client-side pathname walk
// (§5.3). Directories are fetched (and cached, with callback promises)
// like any other file.
func (v *Venus) Resolve(p *sim.Proc, path string) (proto.FID, error) {
	fid, _, missing, err := v.walk(p, path, true, false)
	return fid, walkErr(err, missing)
}

// walkErr is the error a walk's caller returns from Venus: the walk reports a
// name it did not find as bare proto.ErrNoEnt, with missing the path as far
// as it walked, and the path joins the error only here — a create, which
// goes on to make the name, never builds the text.
func walkErr(err error, missing string) error {
	if missing != "" {
		return fmt.Errorf("%w: %s", proto.ErrNoEnt, missing)
	}
	return err
}

// maxLinkDepth bounds the symbolic links one walk may expand.
const maxLinkDepth = 16

// walk is the pathname walk, and for an open the whole cache hit: one hold
// of v.mu from the location hint, through every directory on the way, to the
// file — given up only round the RPC that fetches whatever the cache turns
// out to lack (a location, a directory, a symbolic link's status), and taken
// again to carry on from there. The path is walked in place: a component is
// a slice of it, the hint for each level a prefix of it.
//
// With open set the walk is an open's lookup: the hold that starts it counts
// the open (and runs the revalidation sweep a dropped connection left
// pending), and the hold that reaches the file serves the cached copy if it
// can be served as it stands — the hit counted, the entry moved to the LRU
// front after the directories that led to it and returned pinned. A nil
// entry and no error leave the FID to be revalidated or fetched. (One
// function with a flag, not a walk and a lookup round it: a hold cannot be
// carried into or out of a function that may reach an RPC — itcvet reads a
// callee as blocking whatever it holds at the time.)
//
// A name the walk does not find is proto.ErrNoEnt itself, with missing the
// path walked (see walkErr); missing is empty for every other outcome.
func (v *Venus) walk(p *sim.Proc, path string, followLast, open bool) (_ proto.FID, _ *entry, missing string, _ error) {
	path = unixfs.Clean(path)
	v.mu.Lock()
	defer v.mu.Unlock()
	if open {
		v.stats.Opens++
		if v.sweepPending {
			// A connection died since the last open: the server may have
			// restarted and wiped its callback table, so no promise can be
			// trusted. Revalidate the whole cache in bulk before serving; a
			// failed sweep just leaves entries to the per-open paths.
			v.sweepPending = false
			v.mu.Unlock()
			_, _, _ = v.Revalidate(p, true)
			v.mu.Lock()
		}
	}
levels:
	for depth := 0; depth <= maxLinkDepth; depth++ {
		cr, ok := v.locateLocked(path)
		if !ok {
			v.mu.Unlock()
			var err error
			cr, err = v.askCustodian(p, path)
			v.mu.Lock()
			if err != nil {
				return proto.FID{}, nil, "", err
			}
		}
		cur := proto.FID{Volume: cr.Volume, Vnode: 1, Uniq: 1} // volume root
		// path[:end] is the part walked so far (nothing yet of a volume
		// mounted at the root), and the location hint for the next level.
		end := 0
		if cr.Prefix != "/" {
			end = len(cr.Prefix)
		}
		for end < len(path) && path != "/" {
			walked := cr.Prefix
			if end > 0 {
				walked = path[:end]
			}
			entries, ok, err := v.listingLocked(cur, p)
			if err == nil && !ok {
				v.mu.Unlock()
				var e *entry
				e, err = v.fetchEntry(p, proto.Ref{FID: cur}, walked, 0, nil)
				v.mu.Lock()
				if err == nil {
					// Pinned, so still cached: its listing is read in
					// this hold, as a patch would edit it.
					e.open--
					entries, err = v.decodeDirLocked(e)
				}
			}
			if err != nil {
				return proto.FID{}, nil, "", err
			}
			stop := end + 1
			for stop < len(path) && path[stop] != '/' {
				stop++
			}
			found, ok := proto.LookupDirEntry(entries, path[end+1:stop])
			if !ok {
				return proto.FID{}, nil, path, proto.ErrNoEnt
			}
			if found.Type == proto.TypeSymlink && (stop < len(path) || followLast) {
				st, ok := v.statusLocked(found.FID, p)
				if !ok {
					v.mu.Unlock()
					st, err = v.fetchStatus(p, proto.Ref{FID: found.FID}, path)
					v.mu.Lock()
					if err != nil {
						return proto.FID{}, nil, "", err
					}
				}
				target := st.Target
				if len(target) == 0 || target[0] != '/' {
					target = unixfs.Join(walked, target)
				}
				path = unixfs.Join(target, path[stop:])
				continue levels
			}
			cur, end = found.FID, stop
		}
		if !open {
			return cur, nil, "", nil
		}
		e := v.byFID[cur]
		if e == nil || e.cacheFile == "" || !(e.dirty || v.freshLocked(e, p)) {
			return cur, nil, "", nil
		}
		return cur, v.hitLocked(e), "", nil
	}
	return proto.FID{}, nil, "", fmt.Errorf("%w: %s", proto.ErrLoop, path)
}

// listingLocked returns dir's listing if the cache holds it under a live
// promise, moving it to the LRU front; ok false means it must be fetched.
// The decoded listing is memoized on the entry: the walk reads it per path
// component, and re-decoding the directory file each time dominated the
// client's allocation profile. Callers must not modify the result.
//
//itcvet:holds mu
func (v *Venus) listingLocked(dir proto.FID, p *sim.Proc) (entries []proto.DirEntry, ok bool, err error) {
	e := v.byFID[dir]
	if e == nil || e.cacheFile == "" || !v.freshLocked(e, p) {
		return nil, false, nil
	}
	if entries, err = v.decodeDirLocked(e); err != nil {
		return nil, false, err
	}
	v.touch(e)
	return entries, true, nil
}

// decodeDirLocked returns the listing in e's cache file, decoding it once.
//
//itcvet:holds mu
func (v *Venus) decodeDirLocked(e *entry) ([]proto.DirEntry, error) {
	if e.dirEnts == nil {
		data, err := v.cfg.Local.Lend(e.cacheFile)
		if err != nil {
			return nil, err
		}
		e.dirEnts, err = proto.Unmarshal(data, proto.DecodeDirEntries)
		v.cfg.Local.Return(e.cacheFile, data)
		if err != nil {
			return nil, err
		}
	}
	return e.dirEnts, nil
}

// dirEntries returns a copy of a directory's listing, through the cache.
func (v *Venus) dirEntries(p *sim.Proc, dir proto.FID, path string) ([]proto.DirEntry, error) {
	v.mu.Lock()
	entries, ok, err := v.listingLocked(dir, p)
	entries = slices.Clone(entries)
	v.mu.Unlock()
	if ok || err != nil {
		return entries, err
	}
	e, err := v.fetchEntry(p, proto.Ref{FID: dir}, path, 0, nil)
	if err != nil {
		return nil, err
	}
	return v.listing(e)
}

// listing unpins e, a directory's entry as an open's lookup or fetchEntry
// returned it, and returns a copy of its listing: the memo is edited in
// place under v.mu, and the copy is the caller's.
func (v *Venus) listing(e *entry) ([]proto.DirEntry, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	e.open--
	entries, err := v.decodeDirLocked(e)
	return slices.Clone(entries), err
}

// statusLocked returns fid's status if the cache holds it under a live
// promise.
//
//itcvet:holds mu
func (v *Venus) statusLocked(fid proto.FID, p *sim.Proc) (proto.Status, bool) {
	if e := v.byFID[fid]; e != nil && v.freshLocked(e, p) {
		return e.status, true
	}
	return proto.Status{}, false
}

// statRef returns ref's status, from the cache where it can: a path ref
// carries the zero FID, which no entry is indexed under, so it always asks.
func (v *Venus) statRef(p *sim.Proc, ref proto.Ref, pathHint string) (proto.Status, error) {
	v.mu.Lock()
	st, ok := v.statusLocked(ref.FID, p)
	v.mu.Unlock()
	if ok {
		return st, nil
	}
	return v.fetchStatus(p, ref, pathHint)
}

// fetchStatus asks the custodian for ref's status.
func (v *Venus) fetchStatus(p *sim.Proc, ref proto.Ref, pathHint string) (proto.Status, error) {
	resp, err := v.call(p, ref, pathHint, newRequest(proto.OpFetchStatus, proto.StatusArgs{Ref: ref}))
	defer resp.Release()
	if err != nil {
		return proto.Status{}, err
	}
	return proto.Unmarshal(resp.Body, proto.DecodeStatus)
}

// Stat returns the Vice status of path. The prototype always asks the
// custodian — status caching was ineffective in it, which is why
// "GetFileStat" contributed 27% of all server calls (§5.2). The revised
// implementation answers from valid cached status under callback.
func (v *Venus) Stat(p *sim.Proc, path string) (proto.Status, error) {
	path = unixfs.Clean(path)
	ref, err := v.disc.ref(p, path)
	if err != nil {
		return proto.Status{}, err
	}
	return v.statRef(p, ref, path)
}

// ReadDir lists a Vice directory, in a slice of the caller's own.
func (v *Venus) ReadDir(p *sim.Proc, path string) ([]proto.DirEntry, error) {
	return v.disc.readDir(p, unixfs.Clean(path))
}

// dirPatch edits a cached directory listing after a successful mutation.
// It receives the memoized entries, to edit in place under v.mu with proto's
// insert and remove, and the RPC reply (whose body carries the new object's
// status for create-like ops), and returns the updated listing.
type dirPatch func(entries []proto.DirEntry, resp rpc.Response) []proto.DirEntry

// dirCall performs a directory-mutating op. In revised mode the cached
// listing is patched in place — the server does not break the mutator's own
// callback, and refetching a directory it just changed would waste a
// whole-file transfer per mutation. The prototype cannot patch (its
// validation compares versions with the custodian, which incremented), so
// there the stale listing is dropped: its path ref carries the zero FID,
// which patchDir refuses. ref is dir's, as the caller resolved it for the
// request body.
func (v *Venus) dirCall(p *sim.Proc, dir string, ref proto.Ref, req request, patch dirPatch) error {
	op := uint16(req.Op)
	resp, err := v.call(p, ref, dir, req)
	defer resp.Release()
	if err != nil {
		// With ReconnectRetries enabled a call may be re-issued on a fresh
		// connection, outside the transport's at-most-once window, after an
		// earlier attempt already executed (its reply died with the server):
		// the mutation is at-least-once, and a re-issued Remove can delete a
		// file another station created in the meantime (ROADMAP item 16). A
		// mutation that reports "already done" — Exist on an add, NoEnt on a
		// delete — is taken for such a re-execution and counted a success,
		// which also hides a genuine Exist from a concurrent creator. The
		// cached listing cannot be patched (the reply carries no status), so
		// fall through to the drop-and-refetch path below.
		// (A call that got no reply at all carries code 0 and is never
		// "already done".)
		if v.cfg.ReconnectRetries == 0 || !mutationAlreadyDone(op, resp.Code) {
			return err
		}
		patch = nil
	}
	if patch != nil && v.patchDir(ref.FID, patch, resp) {
		return nil
	}
	v.dropDir(dir)
	if ref.ByFID() {
		v.mu.Lock()
		if e := v.byFID[ref.FID]; e != nil {
			v.removeLocked(e)
		}
		v.mu.Unlock()
	}
	return nil
}

// mutationAlreadyDone reports whether a failed directory mutation left the
// name space in exactly the state the caller asked for — the signature of a
// reconnect re-executing a call whose first attempt succeeded.
func mutationAlreadyDone(op uint16, code uint16) bool {
	switch op {
	case proto.OpMakeDir, proto.OpSymlink, proto.OpLink:
		return code == proto.CodeExist
	case proto.OpRemove, proto.OpRemoveDir:
		return code == proto.CodeNoEnt
	}
	return false
}

// patchDir applies a patch to the cached listing of dir, reporting whether
// it succeeded (false falls back to dropping the cache). The patch edits the
// memoized listing in place, which nothing outside v.mu holds; the file is
// decoded only when there is no memo, and written back only when a handle
// reads it (pinLocked).
func (v *Venus) patchDir(dir proto.FID, patch dirPatch, resp rpc.Response) bool {
	if dir.IsZero() {
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	e := v.byFID[dir]
	if e == nil || !e.valid || e.cacheFile == "" {
		return false
	}
	entries, err := v.decodeDirLocked(e)
	if err != nil {
		return false
	}
	e.dirEnts = patch(entries, resp)
	e.unsaved = true
	size := proto.DirSize(e.dirEnts)
	v.bytes += size - e.status.Size
	e.status.Size = size
	v.evictLocked() // the listing may have grown past the cache limit
	return true
}

// patchAdd inserts an entry whose FID comes from the reply status.
func patchAdd(name string, typ proto.FileType) dirPatch {
	return func(entries []proto.DirEntry, resp rpc.Response) []proto.DirEntry {
		st, err := proto.Unmarshal(resp.Body, proto.DecodeStatus)
		if err != nil {
			return entries
		}
		return proto.InsertDirEntry(entries, proto.DirEntry{Name: name, FID: st.FID, Type: typ})
	}
}

// patchDel removes an entry by name.
func patchDel(name string) dirPatch {
	return func(entries []proto.DirEntry, _ rpc.Response) []proto.DirEntry {
		return proto.RemoveDirEntry(entries, name)
	}
}

// Mkdir creates a directory in the shared space.
func (v *Venus) Mkdir(p *sim.Proc, path string, mode uint16) error {
	dir, name := unixfs.Dir(path), unixfs.Base(path)
	if name == "/" {
		// The root of the shared space is always there, and "/" is not a
		// name Vice would take: answer what mkdir of an existing directory does.
		return fmt.Errorf("%w: %s", proto.ErrExist, path)
	}
	ref, err := v.disc.ref(p, dir)
	if err != nil {
		return err
	}
	return v.dirCall(p, dir, ref,
		newRequest(proto.OpMakeDir, proto.NameArgs{Dir: ref, Name: name, Mode: mode}),
		patchAdd(name, proto.TypeDir))
}

// Remove unlinks a file or symlink.
func (v *Venus) Remove(p *sim.Proc, path string) error {
	path = unixfs.Clean(path)
	dir, name := unixfs.Dir(path), unixfs.Base(path)
	ref, err := v.disc.ref(p, dir)
	if err != nil {
		return err
	}
	if err := v.dirCall(p, dir, ref,
		newRequest(proto.OpRemove, proto.NameArgs{Dir: ref, Name: name}), patchDel(name)); err != nil {
		return err
	}
	v.mu.Lock()
	if e := v.byPath[path]; e != nil {
		v.removeLocked(e)
	}
	v.mu.Unlock()
	return nil
}

// RemoveDir removes an empty directory.
func (v *Venus) RemoveDir(p *sim.Proc, path string) error {
	path = unixfs.Clean(path)
	dir, name := unixfs.Dir(path), unixfs.Base(path)
	ref, err := v.disc.ref(p, dir)
	if err != nil {
		return err
	}
	if err := v.dirCall(p, dir, ref,
		newRequest(proto.OpRemoveDir, proto.NameArgs{Dir: ref, Name: name}), patchDel(name)); err != nil {
		return err
	}
	v.dropDir(path)
	return nil
}

// Rename moves a file or subtree within one volume.
func (v *Venus) Rename(p *sim.Proc, from, to string) error {
	from, to = unixfs.Clean(from), unixfs.Clean(to)
	fromDir, fromName := unixfs.Dir(from), unixfs.Base(from)
	toDir, toName := unixfs.Dir(to), unixfs.Base(to)
	fromRef, err := v.disc.ref(p, fromDir)
	if err != nil {
		return err
	}
	toRef, err := v.disc.ref(p, toDir)
	if err != nil {
		return err
	}
	// Within one directory the cached listing can be edited in place; a
	// cross-directory move patches the source and drops the target.
	var patch dirPatch
	if fromDir == toDir {
		patch = func(entries []proto.DirEntry, _ rpc.Response) []proto.DirEntry {
			moved, ok := proto.LookupDirEntry(entries, fromName)
			if !ok {
				return entries
			}
			moved.Name = toName // replaces an entry of that name
			return proto.InsertDirEntry(proto.RemoveDirEntry(entries, fromName), moved)
		}
	} else {
		patch = patchDel(fromName)
	}
	err = v.dirCall(p, fromDir, fromRef, newRequest(proto.OpRename, proto.RenameArgs{
		FromDir: fromRef, FromName: fromName, ToDir: toRef, ToName: toName,
	}), patch)
	if err != nil {
		return err
	}
	if fromDir != toDir {
		v.dropDir(toDir)
		if toRef.ByFID() {
			v.mu.Lock()
			if e := v.byFID[toRef.FID]; e != nil {
				v.removeLocked(e)
			}
			v.mu.Unlock()
		}
	}
	v.mu.Lock()
	if e := v.byPath[from]; e != nil {
		v.removeLocked(e)
	}
	if e := v.byPath[to]; e != nil {
		v.removeLocked(e)
	}
	v.mu.Unlock()
	return nil
}

// Symlink creates a symbolic link in the shared space.
func (v *Venus) Symlink(p *sim.Proc, target, path string) error {
	dir, name := unixfs.Dir(path), unixfs.Base(path)
	ref, err := v.disc.ref(p, dir)
	if err != nil {
		return err
	}
	return v.dirCall(p, dir, ref,
		newRequest(proto.OpSymlink, proto.SymlinkArgs{Dir: ref, Name: name, Target: target}),
		patchAdd(name, proto.TypeSymlink))
}

// Link creates a hard link within one volume.
func (v *Venus) Link(p *sim.Proc, oldPath, newPath string) error {
	dir, name := unixfs.Dir(newPath), unixfs.Base(newPath)
	dirRef, err := v.disc.ref(p, dir)
	if err != nil {
		return err
	}
	oldRef, err := v.disc.ref(p, oldPath)
	if err != nil {
		return err
	}
	return v.dirCall(p, dir, dirRef,
		newRequest(proto.OpLink, proto.LinkArgs{Dir: dirRef, Name: name, Target: oldRef}),
		func(entries []proto.DirEntry, _ rpc.Response) []proto.DirEntry {
			if !oldRef.ByFID() {
				return entries
			}
			return proto.InsertDirEntry(entries, proto.DirEntry{Name: name, FID: oldRef.FID, Type: proto.TypeFile})
		})
}

// SetMode changes per-file protection bits.
func (v *Venus) SetMode(p *sim.Proc, path string, mode uint16) error {
	ref, err := v.disc.ref(p, path)
	if err != nil {
		return err
	}
	resp, err := v.call(p, ref, path,
		newRequest(proto.OpSetStatus, proto.SetStatusArgs{Ref: ref, SetMode: true, Mode: mode}))
	defer resp.Release()
	if err != nil {
		return err
	}
	st, err := proto.Unmarshal(resp.Body, proto.DecodeStatus)
	if err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	e := v.byFID[st.FID]
	if e == nil {
		e = v.byPath[unixfs.Clean(path)]
	}
	switch {
	case e == nil:
	case e.status.FID == st.FID && st.Version == e.status.Version+1:
		// The chmod was the only change: the cached bytes are still current.
		v.bytes += st.Size - e.status.Size
		e.status = st
	default:
		// Another workstation stored in between. The copy keeps the status
		// of the bytes it holds, which no longer validates: the next open
		// fetches.
		e.valid = false
	}
	return nil
}

// GetACL fetches the access list of a directory.
func (v *Venus) GetACL(p *sim.Proc, dir string) ([]byte, error) {
	ref, err := v.disc.ref(p, dir)
	if err != nil {
		return nil, err
	}
	resp, err := v.call(p, ref, dir, newRequest(proto.OpGetACL, proto.ACLArgs{Dir: ref}))
	defer resp.Release()
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), resp.Body...), nil
}

// SetACL replaces the access list of a directory.
func (v *Venus) SetACL(p *sim.Proc, dir string, acl []byte) error {
	ref, err := v.disc.ref(p, dir)
	if err != nil {
		return err
	}
	resp, err := v.call(p, ref, dir, newRequest(proto.OpSetACL, proto.ACLArgs{Dir: ref, ACL: acl}))
	resp.Release()
	return err
}

// Lock acquires an advisory lock.
func (v *Venus) Lock(p *sim.Proc, path string, exclusive bool) error {
	ref, err := v.disc.ref(p, path)
	if err != nil {
		return err
	}
	resp, err := v.call(p, ref, path, newRequest(proto.OpSetLock, proto.LockArgs{Ref: ref, Exclusive: exclusive}))
	resp.Release()
	return err
}

// Unlock releases an advisory lock.
func (v *Venus) Unlock(p *sim.Proc, path string) error {
	ref, err := v.disc.ref(p, path)
	if err != nil {
		return err
	}
	resp, err := v.call(p, ref, path, newRequest(proto.OpReleaseLock, proto.LockArgs{Ref: ref}))
	resp.Release()
	return err
}
