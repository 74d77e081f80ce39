package vice

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/store"
	"itcfs/internal/trace"
	"itcfs/internal/unixfs"
	"itcfs/internal/volume"
)

// Mode selects which of the paper's two implementations the server (and the
// Venus clients talking to it) behaves as.
type Mode int

// Modes.
const (
	// Prototype: workstations present entire pathnames and validate cached
	// copies on every open; servers walk paths and keep no callback state.
	Prototype Mode = iota
	// Revised: fixed-length FIDs, client-side pathname traversal against
	// cached directories, and callback-based cache invalidation.
	Revised
)

func (m Mode) String() string {
	if m == Prototype {
		return "prototype"
	}
	return "revised"
}

// MarshalText returns the mode's name, as String does.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText sets the mode MarshalText names text, and refuses any other
// text: a mistyped mode must not run the other design.
func (m *Mode) UnmarshalText(text []byte) error {
	switch string(text) {
	case "prototype":
		*m = Prototype
	case "revised":
		*m = Revised
	default:
		return fmt.Errorf("unknown mode %q: want prototype or revised", text)
	}
	return nil
}

// ServerUser is the identity servers use with each other. It is inside the
// boundary of trustworthiness: requests authenticated as ServerUser bypass
// access lists.
const ServerUser = "System:Server"

// AdminGroup is the operations-staff group; members may administer volumes
// and the protection database.
const AdminGroup = "System:Administrators"

// Config assembles a server's dependencies.
type Config struct {
	Name  string
	Mode  Mode
	DB    *prot.DB // this server's replica of the protection database
	Loc   *LocDB   // this server's replica of the location database
	Clock volume.Clock
	// ProtAuthority marks the server hosting the protection server role;
	// only it accepts OpProtMutate, pushing the mutation to every replica.
	ProtAuthority bool
	// AllocVolID issues cell-wide unique volume IDs.
	AllocVolID func() uint32
	// Tracer, Metrics and Flight are the server's instruments, which New
	// names on its Dispatcher (rpc.Server.Observe) for both carriers, so each
	// connection served through it reports there. The tracer records a span
	// per served call. The registry receives the RPC layer's counters and
	// latency histograms and the server's own (lock conflicts, callback
	// fan-out, vice.vol.<id>.latency, vice.vol.<id>.ops). The flight recorder
	// receives operational events: salvages, callback break storms and the
	// simulator's retransmissions. Each may be nil, and then records nothing.
	Tracer  *trace.Tracer
	Metrics *trace.Registry
	Flight  *trace.Recorder
	// UnbatchedBreaks forces one callback RPC per broken promise (the
	// pre-batching break path) for ablation experiments such as E14.
	UnbatchedBreaks bool
	// BreakWindow widens the callback coalescing window beyond
	// DefaultBreakWindow: each update's reply waits up to this long extra so
	// concurrent updates' breaks for the same workstation share one RPC.
	// Zero keeps the default.
	BreakWindow time.Duration
	// Store, when set, journals every volume, location and protection
	// mutation durably before it is acknowledged; RecoverStore loads the
	// surviving state back after a restart. Nil keeps volumes volatile (the
	// simulator's default).
	Store store.Store
}

// Server is one Vice cluster server.
type Server struct {
	cfg Config

	mu    sync.Mutex
	vols  map[uint32]*volume.Volume // guarded by mu
	peers map[string]rpc.Conn       // guarded by mu

	// gate guards Vice's state as a whole — volumes, the databases, the
	// promise a reply leaves — in place of the paper's non-pre-emptive LWPs
	// (§3.5.2). One rule: a handler holds it, read side to build a reply from
	// server state, write side to change it (commit, store.go), from its
	// first touch of that state to the first point where the simulator would
	// park it (fsync wait, callback break, peer call), and never across one.
	// Acquired before mu and every other lock of the package; not
	// re-entrant, so nothing that holds it calls what takes it.
	gate sync.RWMutex

	locks     *LockTable
	callbacks *CallbackTable
	disp      *rpc.Server
	restarts  int64 // guarded by mu

	// Traffic counters for the evaluation harness.
	fetchBytes int64 // guarded by mu
	storeBytes int64 // guarded by mu
	// pathname components walked server-side (prototype cost)
	// guarded by mu
	walkComponents int64
	// volStats holds one record per volume a hot-path call has touched.
	// guarded by mu
	volStats map[uint32]*volStat
	// pendingVol remembers, per worker process (a simulated one, or a Peer
	// worker's own process without a kernel), the record of the volume its
	// in-flight call touched, so observeCall can attribute the call's service
	// time to that volume's latency histogram and delete the entry.
	// guarded by mu
	pendingVol map[*sim.Proc]*volStat
}

// volStat is what a server records of the calls served from one volume.
// Its fields are guarded by Server.mu.
type volStat struct {
	vol uint32
	// access counts hot-path operations per requesting node since the last
	// ResetAccessStats, the raw data for the monitoring tools of §3.6
	// (recognizing long-term access patterns and recommending custodian
	// reassignment); nil when there were none.
	access map[string]int64
	// ops and lat are the volume's metric handles, resolved once: both are
	// touched on every served hot-path call, and resolving the Sprintf'd
	// name through the registry each time is measurable at scale. lat is
	// resolved at the first call observed; both are nil without a registry.
	ops *trace.Counter
	lat *trace.Histogram
}

// New creates a server, its Dispatcher observed with cfg's instruments.
// Register the Dispatcher with an rpc transport to serve clients.
func New(cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return 0 }
	}
	if cfg.Loc == nil {
		cfg.Loc = NewLocDB()
	}
	if cfg.DB == nil {
		cfg.DB = prot.NewDB()
	}
	s := &Server{
		cfg:        cfg,
		vols:       make(map[uint32]*volume.Volume),
		peers:      make(map[string]rpc.Conn),
		locks:      NewLockTable(),
		callbacks:  newCallbackTable(cfg),
		disp:       rpc.NewServer(),
		volStats:   make(map[uint32]*volStat),
		pendingVol: make(map[*sim.Proc]*volStat),
	}
	s.registerHandlers()
	s.disp.Observe(cfg.Name, cfg.Tracer, cfg.Metrics, cfg.Flight)
	s.disp.OnServed(s.observeCall)
	return s
}

// Name returns the server's name.
func (s *Server) Name() string { return s.cfg.Name }

// DB returns the protection-database replica (it doubles as the key lookup
// for the authentication handshake).
func (s *Server) DB() *prot.DB { return s.cfg.DB }

// Loc returns the location-database replica.
func (s *Server) Loc() *LocDB { return s.cfg.Loc }

// Locks returns the advisory lock table.
func (s *Server) Locks() *LockTable { return s.locks }

// Callbacks returns the callback table (revised mode).
func (s *Server) Callbacks() *CallbackTable { return s.callbacks }

// Dispatcher returns the rpc handler set to attach to a transport.
func (s *Server) Dispatcher() *rpc.Server { return s.disp }

// AddPeer registers an authenticated connection to another server.
func (s *Server) AddPeer(name string, c rpc.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers[name] = c
}

// AddVolume installs a volume on this server (bootstrap and tests),
// journalling its image when a store is configured.
func (s *Server) AddVolume(v *volume.Volume) error {
	return s.attachVolume(v)
}

// Volume returns a locally stored volume.
func (s *Server) Volume(id uint32) (*volume.Volume, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vols[id]
	return v, ok
}

// VolumeIDs lists the volumes stored here.
func (s *Server) VolumeIDs() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint32, 0, len(s.vols))
	for id := range s.vols {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TrafficStats reports bytes served and stored, and pathname components
// walked server-side.
func (s *Server) TrafficStats() (fetchBytes, storeBytes, walked int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetchBytes, s.storeBytes, s.walkComponents
}

// noteAccess records one hot-path operation on vol by the calling peer node,
// and marks the serving process so observeCall can attribute the call's
// service time to the volume.
func (s *Server) noteAccess(ctx rpc.Ctx, vol uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.volStats[vol]
	if st == nil {
		st = &volStat{vol: vol}
		if s.cfg.Metrics != nil {
			// Per-volume call-mix counter: sampled into per-window rates, it
			// is how the overload detector attributes a hot server's load to
			// the volume driving it. (Registry locks nest under s.mu here;
			// the registry never calls back into vice.)
			st.ops = s.cfg.Metrics.Counter(trace.VolOpsMetric(vol))
		}
		s.volStats[vol] = st
	}
	if st.access == nil {
		st.access = make(map[string]int64)
	}
	st.access[ctx.Peer]++
	if s.cfg.Metrics != nil {
		st.ops.Inc()
		s.pendingVol[ctx.Proc] = st
	}
}

// observeCall is the dispatcher's OnServed hook: after each call served on
// either carrier it records the measured service time against the volume the
// call touched (if any), and deletes the worker's pendingVol entry. In the
// simulator svc is virtual time, so the histograms are seed-deterministic; on
// a Peer it is wall time.
func (s *Server) observeCall(ctx rpc.Ctx, req rpc.Request, resp rpc.Response, svc time.Duration) {
	if s.cfg.Metrics == nil {
		return
	}
	s.mu.Lock()
	st, ok := s.pendingVol[ctx.Proc]
	var h *trace.Histogram
	if ok {
		delete(s.pendingVol, ctx.Proc)
		if st.lat == nil {
			st.lat = s.cfg.Metrics.Histogram(trace.VolLatencyMetric(st.vol))
		}
		h = st.lat
	}
	s.mu.Unlock()
	if ok {
		h.Observe(svc)
	}
}

// AccessStats returns a copy of the per-volume, per-node operation counts.
func (s *Server) AccessStats() map[uint32]map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint32]map[string]int64)
	for vol, st := range s.volStats {
		if st.access == nil {
			continue
		}
		cp := make(map[string]int64, len(st.access))
		for peer, n := range st.access {
			cp[peer] = n
		}
		out[vol] = cp
	}
	return out
}

// ResetAccessStats clears the per-volume counters (between observation
// windows).
func (s *Server) ResetAccessStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.volStats {
		st.access = nil
	}
}

// Crash models a server process dying: all volatile state — callback
// promises and the advisory lock table — is lost, while volumes (on "disk")
// survive. Clients holding callback promises are now at risk of staleness;
// they recover by revalidating on reconnect or when their promise TTL
// expires, and the server re-promises on the next fetch (§3.3 recovery).
func (s *Server) Crash() {
	s.callbacks.Reset()
	s.locks.Reset()
	s.mu.Lock()
	s.restarts++
	s.mu.Unlock()
}

// Restarts returns how many times the server has crashed and restarted.
func (s *Server) Restarts() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restarts
}

// SalvageAll runs crash recovery on every local volume, journalling any
// repairs. Volumes are collected under mu and salvaged outside it: salvage
// mutates, and mutations take the gate first (lock order, see store.go).
func (s *Server) SalvageAll() map[uint32]volume.SalvageReport {
	s.mu.Lock()
	vols := make([]*volume.Volume, 0, len(s.vols))
	for _, v := range s.vols {
		vols = append(vols, v)
	}
	s.mu.Unlock()
	sort.Slice(vols, func(i, j int) bool { return vols[i].ID() < vols[j].ID() })
	out := make(map[uint32]volume.SalvageReport, len(vols))
	for _, v := range vols {
		var rep volume.SalvageReport
		_ = s.mutate(v, func() error { rep = v.Salvage(); return nil }) // repairs applied in memory regardless
		out[v.ID()] = rep
	}
	return out
}

// cps computes the caller's protection subdomain.
func (s *Server) cps(user string) []string { return s.cfg.DB.CPS(user) }

// isAdmin reports whether the caller may administer volumes and protection.
func (s *Server) isAdmin(user string) bool {
	if user == ServerUser {
		return true
	}
	for _, n := range s.cps(user) {
		if n == AdminGroup {
			return true
		}
	}
	return false
}

// checkRights enforces an access list. Peer servers and operations staff
// (the AdminGroup) hold implicit rights on every object, as the
// administrators who physically control Vice necessarily do.
func (s *Server) checkRights(user string, acl prot.ACL, want prot.Right) error {
	if user == ServerUser {
		return nil
	}
	cps := s.cps(user)
	if acl.Check(cps, want) {
		return nil
	}
	for _, n := range cps {
		if n == AdminGroup {
			return nil
		}
	}
	return fmt.Errorf("%w: need %v", proto.ErrAccess, want)
}

// localVolume returns a volume stored here, or the error that sends the
// caller on: WrongServer naming the custodian when the location database
// knows the volume lives elsewhere, ErrStale when nobody has it.
func (s *Server) localVolume(id uint32) (*volume.Volume, error) {
	if v, ok := s.Volume(id); ok {
		return v, nil
	}
	if le, ok := s.cfg.Loc.ResolveVolume(id); ok {
		return nil, &proto.WrongServer{Custodian: le.Custodian}
	}
	return nil, fmt.Errorf("%w: volume %d", proto.ErrStale, id)
}

// maxWalkDepth bounds symlink-following during server-side walks.
const maxWalkDepth = 16

// resolvePath walks an entire pathname server-side (prototype mode, §3.5).
// It resolves the longest location-database prefix, walks the remaining
// components inside that volume, follows symlinks (restarting resolution,
// since a link may lead anywhere in the shared space), and returns the
// volume and FID reached. followLast selects whether a final symlink is
// followed.
func (s *Server) resolvePath(path string, followLast bool) (*volume.Volume, proto.FID, error) {
	return s.walkPath(path, followLast, 0)
}

func (s *Server) walkPath(path string, followLast bool, depth int) (*volume.Volume, proto.FID, error) {
	if depth > maxWalkDepth {
		return nil, proto.FID{}, fmt.Errorf("%w: %s", proto.ErrLoop, path)
	}
	if path == "" || path[0] != '/' {
		// Clean would coerce a malformed path to "/"; a hostile client
		// must not reach the root that way.
		return nil, proto.FID{}, fmt.Errorf("%w: path %q not absolute", proto.ErrBadRequest, path)
	}
	path = unixfs.Clean(path)
	le, ok := s.cfg.Loc.Resolve(path)
	if !ok {
		return nil, proto.FID{}, fmt.Errorf("%w: no volume covers %s", proto.ErrNoEnt, path)
	}
	v, local := s.Volume(le.Volume)
	if !local {
		return nil, proto.FID{}, &proto.WrongServer{Custodian: le.Custodian}
	}
	cur := v.Root()
	components := PathWithin(le, path)
	prefix := le.Prefix
	for i, comp := range components {
		s.mu.Lock()
		s.walkComponents++
		s.mu.Unlock()
		de, err := v.Lookup(cur, comp)
		if err != nil {
			return nil, proto.FID{}, fmt.Errorf("%s: %w", path, err)
		}
		last := i == len(components)-1
		if de.FID.Volume != v.ID() {
			// A mount point: the remainder lives in another volume, whose
			// prefix the location database already covers. Restart there.
			return s.walkPath(path, followLast, depth+1)
		}
		vn, err := v.Get(de.FID)
		if err != nil {
			return nil, proto.FID{}, err
		}
		if vn.Status.Type == proto.TypeSymlink && (!last || followLast) {
			target := vn.Status.Target
			if len(target) == 0 || target[0] != '/' {
				target = unixfs.Join(prefix, join(components[:i]), target)
			}
			rest := join(components[i+1:])
			return s.walkPath(unixfs.Join(target, rest), followLast, depth+1)
		}
		cur = de.FID
	}
	return v, cur, nil
}

func join(parts []string) string {
	out := ""
	for _, p := range parts {
		out += "/" + p
	}
	return out
}

// resolveRef resolves either addressing mode. Prototype-mode requests carry
// paths; revised-mode requests carry FIDs (after Venus has walked cached
// directories itself).
func (s *Server) resolveRef(ref proto.Ref, followLast bool) (*volume.Volume, proto.FID, error) {
	if ref.ByFID() {
		v, err := s.localVolume(ref.FID.Volume)
		if err != nil {
			return nil, proto.FID{}, err
		}
		return v, ref.FID, nil
	}
	if ref.Path == "" {
		return nil, proto.FID{}, fmt.Errorf("%w: empty ref", proto.ErrBadRequest)
	}
	return s.resolvePath(ref.Path, followLast)
}

// respErr converts an error to an rpc.Response, attaching the custodian
// hint for WrongServer.
func respErr(err error) rpc.Response {
	var ws *proto.WrongServer
	if errors.As(err, &ws) {
		return rpc.Response{Code: proto.CodeWrongServer, Body: []byte(ws.Custodian)}
	}
	return rpc.Response{Code: proto.ErrToCode(err), Body: []byte(err.Error())}
}

func respStatus(st proto.Status) rpc.Response {
	return rpc.Reply(st)
}
