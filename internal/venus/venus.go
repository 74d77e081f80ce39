// Package venus implements Venus, the user-level cache manager of §3.5.1:
// it handles management of the workstation's whole-file cache, communication
// with Vice, and the emulation of native file-system primitives for Vice
// files. Application programs never talk to Vice; they operate on cached
// copies through handles Venus hands out, and Venus contacts custodians
// only on opens, closes and directory operations.
//
// Venus supports both of the paper's implementations, and New chooses one
// from Config.Mode, once: its discipline (discipline.go) answers every
// question on which the two differ.
//
//   - Prototype mode: whole pathnames go to the server, every open
//     revalidates the cached copy (check-on-open), and the cache holds at
//     most MaxFiles entries (count-limited LRU — the paper's "negative
//     experience" the revised space-limited algorithm fixes).
//   - Revised mode: Venus translates pathnames to FIDs itself by caching
//     and traversing directories, cached entries stay valid until the
//     server breaks a callback, and the cache is limited by bytes.
package venus

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/unixfs"
	"itcfs/internal/vice"
	"itcfs/internal/wire"
)

// Conn abstracts an authenticated connection to one server.
//
// Bulk changes hands with the call. A request's Bulk is only read, and only
// until Call returns, however it returns — a reply, an error reply, the
// deadline, the connection closing — so a store lends the cache file's own
// bytes for the call and ends the loan when Call returns
// (rpc.TestRequestBulkIsReadOnlyUntilCallReturns holds both transports to
// this). A response's Bulk belongs to the caller outright when the response
// is Owned — nothing else refers to its array or will write it — and Venus
// keeps it as the cache file's contents, where later writes edit it in
// place, or hands it to a whole-file reader (ReadFile). One that is not
// owned (a Peer's reply in a lent frame, a test's direct dispatch) is
// copied out before the response is released.
type Conn = rpc.Conn

// Connector dials the named server, authenticating as the current user. Each
// call must dial a fresh connection: Venus closes a connection it drops, and
// calls again for the next one.
type Connector func(p *sim.Proc, server string) (Conn, error)

// PeerConnector is the Connector of a workstation on the real transport: each
// call opens a stream to the server with dial, authenticates over it as user
// with key, and returns a new rpc.Peer on which the server's callback breaks
// reach callbacks. A stream whose handshake fails is closed.
func PeerConnector(dial func(server string) (io.ReadWriteCloser, error), user string, key secure.Key, callbacks *rpc.Server) Connector {
	return func(_ *sim.Proc, server string) (Conn, error) {
		stream, err := dial(server)
		if err != nil {
			return nil, err
		}
		peer, err := rpc.DialPeer(stream, user, key, callbacks)
		if err != nil {
			stream.Close()
			return nil, fmt.Errorf("authentication failed: %w", err)
		}
		return peer, nil
	}
}

// Stats counts Venus activity; the evaluation harness reads these for the
// cache-hit-ratio and call-mix experiments.
type Stats struct {
	Opens           int64
	Hits            int64 // opens served without fetching data
	Misses          int64 // opens that fetched the file
	Validations     int64 // TestValid RPCs (check-on-open)
	BulkValidations int64 // BulkTestValid RPCs (batched revalidation sweeps)
	Revalidated     int64 // cached entries checked by revalidation sweeps
	Fetches         int64 // Fetch RPCs (data)
	Stores          int64 // Store RPCs
	StatRPCs        int64 // FetchStatus RPCs
	OtherRPCs       int64 // directory ops, locks, custodian queries
	CallbackBreaks  int64 // invalidations received
	Evictions       int64
	BytesFetched    int64
	BytesStored     int64
	DegradedReads   int64 // reads served from cache while the server was unreachable
	Reconnects      int64 // dead connections dropped for redial: a transport failure, or an end the connection reported
	Failovers       int64 // calls moved to a fallback replica after a server stayed unreachable
}

// HitRatio returns hits over opens (0 when no opens).
func (s Stats) HitRatio() float64 {
	if s.Opens == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Opens)
}

// Config assembles a Venus instance.
type Config struct {
	Mode       vice.Mode
	Machine    string // workstation name, for diagnostics
	Local      *unixfs.FS
	MaxFiles   int    // prototype cache limit (entry count)
	MaxBytes   int64  // revised cache limit (bytes)
	HomeServer string // this cluster's server, asked first for locations
	Connect    Connector
	// CallbackTTL bounds how long a revised-mode client trusts a callback
	// promise without revalidating (0 = forever, the paper's design). A
	// finite TTL bounds staleness when a server crash wipes its callback
	// table or a partition swallows break messages: once the TTL expires,
	// the next open revalidates with TestValid, which also hands the server
	// a fresh promise — rebuilding its callback table after a restart.
	CallbackTTL time.Duration
	// ReconnectRetries lets Venus redial a server and re-issue a call after
	// a transport failure (server crash or long outage); 0 fails fast. A
	// re-issued call is a new connection, outside the transport's
	// at-most-once window, so with retries a mutation is at-least-once: it
	// may execute twice. A re-issued Remove deletes a file that another
	// station created under the name in the meantime, and a re-executed
	// Store or Rename goes unnoticed (ROADMAP item 16). dirCall takes Exist
	// on a re-issued add and NoEnt on a re-issued delete for the first
	// attempt's success, which also hides a genuine Exist from a concurrent
	// creator.
	ReconnectRetries int
	// RevalidateBatch caps how many cached entries one BulkTestValid RPC
	// revalidates during a sweep (reconnection or TTL). 0 uses
	// DefaultRevalidateBatch; 1 degenerates to one legacy TestValid RPC per
	// entry — the unbatched protocol, kept for ablation experiments.
	RevalidateBatch int
	// Tracer records spans for opens, closes, validations, fetches and
	// stores; nil disables tracing at near-zero cost.
	Tracer *trace.Tracer
	// Metrics receives cache hit/miss counters and per-operation latency
	// histograms; nil disables.
	Metrics *trace.Registry
	// Flight, when set, receives operational events — degraded-mode entry
	// and exit, revalidation sweeps — for the flight recorder. Nil disables.
	Flight *trace.Recorder
}

// entry is one cached whole file (or directory listing, or status-only
// record).
type entry struct {
	path      string // canonical Vice path (prototype key; hint in revised)
	fid       proto.FID
	status    proto.Status
	cacheFile string // local file holding the data ("" = status-only)
	// dirEnts memoizes the decoded listing of a cached directory file. It is
	// dropped whenever cacheFile is rewritten (install, local write) and
	// edited in place by patchDir; resolution walks read it on every path
	// component, so re-decoding per walk would dominate the client's
	// allocation profile. It never leaves v.mu: ReadDir hands out a copy.
	dirEnts []proto.DirEntry
	// unsaved: dirEnts holds patches cacheFile lacks. The listing is written
	// back when a handle is about to read the file (pinLocked); an eviction
	// just drops it.
	unsaved   bool
	valid     bool     // revised: callback promise still held
	dirty     bool     // modified locally, not yet stored
	writes    int64    // local modifications so far; a store clears dirty only if none raced it
	open      int      // open handle count (pinned)
	fetchedAt sim.Time // when the copy (and its promise) was last confirmed
	lruEl     *list.Element
}

// Venus is one workstation's cache manager.
type Venus struct {
	cfg  Config
	disc discipline // the one reader of cfg.Mode

	mu     sync.Mutex
	user   string               // guarded by mu
	conns  map[string]Conn      // guarded by mu
	byPath map[string]*entry    // guarded by mu
	byFID  map[proto.FID]*entry // guarded by mu
	// front = most recently used
	// guarded by mu
	lru    *list.List
	bytes  int64 // guarded by mu
	nextID int64 // guarded by mu
	// volume -> location
	// guarded by mu
	volLoc map[uint32]proto.CustodianReply
	// prefix -> location
	// guarded by mu
	pathLoc map[string]proto.CustodianReply
	stats   Stats // guarded by mu
	// breakGen counts callback breaks received. Fetch and store snapshot
	// it around their RPCs: a break that lands mid-flight must win over the
	// reply's "valid" — otherwise a racing writer's invalidation would be
	// silently clobbered and this workstation would stay stale forever.
	// guarded by mu
	breakGen int64
	// sweepPending is set when a dead connection is dropped: the server may
	// have restarted and lost its callback table, so before the next open
	// trusts any promise, the whole cache is revalidated in bulk.
	// guarded by mu
	sweepPending bool
	// degradedMode is set while cached copies are being served read-only
	// because a custodian is unreachable; a revalidation sweep that reaches
	// every custodian clears it. Drives the flight recorder's degraded
	// entry/exit events.
	// guarded by mu
	degradedMode bool

	// Cached metric handles, resolved once at construction: opens are the
	// hot path and registry lookups hash the metric name under a mutex.
	// All are nil (and their methods no-ops) without a registry.
	mCacheHits *trace.Counter
	mCacheMiss *trace.Counter
	mFailover  *trace.Counter
	mBreaks    *trace.Counter
	mOpenLat   *trace.Histogram
	mStoreLat  *trace.Histogram
}

// cacheDir is the directory in Config.Local holding the cached copies.
const cacheDir = "/cache"

// New creates a Venus. Call Login before any file operation.
func New(cfg Config) *Venus {
	if cfg.MaxFiles == 0 {
		cfg.MaxFiles = 200 // the prototype's count limit
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = 20 << 20 // a 1980s workstation disk partition
	}
	_ = cfg.Local.MkdirAll(cacheDir, 0o700, "venus")
	v := &Venus{
		cfg:        cfg,
		conns:      make(map[string]Conn),
		byPath:     make(map[string]*entry),
		byFID:      make(map[proto.FID]*entry),
		lru:        list.New(),
		volLoc:     make(map[uint32]proto.CustodianReply),
		pathLoc:    make(map[string]proto.CustodianReply),
		mCacheHits: cfg.Metrics.Counter(trace.MetricVenusCacheHits),
		mCacheMiss: cfg.Metrics.Counter(trace.MetricVenusCacheMisses),
		mFailover:  cfg.Metrics.Counter(trace.MetricVenusFailover),
		mBreaks:    cfg.Metrics.Counter(trace.MetricVenusCallbackBreaks),
		mOpenLat:   cfg.Metrics.Histogram(trace.MetricVenusOpenLatency),
		mStoreLat:  cfg.Metrics.Histogram(trace.MetricVenusStoreLatency),
	}
	v.disc = revised{v}
	if cfg.Mode == vice.Prototype {
		v.disc = prototype{v}
	}
	return v
}

// Login sets the workstation's user. Existing connections (authenticated
// as the previous user) are dropped, and those that can be closed are
// closed, in server-name order; the promises made on a closed connection go
// with it, so closing any schedules a revalidation sweep as dropConn does.
// When the user actually changes — someone else sits down at a public
// workstation — every clean cached entry is invalidated: the data stays on
// the local disk (nothing can hide it from the machine's owner), but Venus
// will revalidate or refetch before serving it, so the custodian's access
// lists are enforced for the new identity. A same-user re-login keeps the
// warm cache.
func (v *Venus) Login(user string) {
	v.mu.Lock()
	if user != v.user && v.user != "" {
		for _, e := range v.byFID {
			if !e.dirty {
				e.valid = false
			}
		}
		for _, e := range v.byPath {
			if !e.dirty {
				e.valid = false
			}
		}
	}
	v.user = user
	servers := make([]string, 0, len(v.conns))
	for server := range v.conns {
		servers = append(servers, server)
	}
	// A simulated connection's Close sends a frame: a fixed order keeps runs
	// identical.
	sort.Strings(servers)
	var closers []io.Closer
	for _, server := range servers {
		if cl, ok := v.conns[server].(io.Closer); ok {
			closers = append(closers, cl)
		}
	}
	v.conns = make(map[string]Conn)
	v.sweepPending = v.sweepPending || len(closers) > 0
	v.mu.Unlock()
	for _, cl := range closers {
		cl.Close()
	}
}

// User returns the current user.
func (v *Venus) User() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.user
}

// Stats returns a copy of the counters.
func (v *Venus) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// ResetStats zeroes the counters (between experiment phases).
func (v *Venus) ResetStats() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.stats = Stats{}
}

// CacheUsage reports the cached entry count and byte total.
func (v *Venus) CacheUsage() (files int, bytes int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.lru.Len(), v.bytes
}

// Flags for Open.
type OpenFlag uint32

// Open flags, a subset of Unix open(2).
const (
	FlagRead   OpenFlag = 1 << iota // open for reading
	FlagWrite                       // open for writing
	FlagCreate                      // create if absent
	FlagTrunc                       // truncate on open
)

// Handle is an open file of the workstation, one offset on one file of a
// unixfs. For a Vice file (Open) that file is the cached copy: reads and
// writes go to it and the store happens at Close (§3.2). For a local file
// (OpenLocal) it is the file itself, and there is no Venus and no entry.
type Handle struct {
	// v and e are nil for a local file. e is pinned (open > 0) from the
	// hold that chose it until Close.
	v *Venus
	e *entry
	// fs and file name the open file. For a Vice file they are Config.Local
	// and e.cacheFile, copied at open: a pinned entry keeps its cache file,
	// so reads and writes need neither the entry nor the lock.
	fs     *unixfs.FS
	file   string
	flags  OpenFlag
	offset int64
	closed bool
}

// errClosed is what every read, write and seek on a closed handle returns,
// in either name space.
var errClosed = fmt.Errorf("%w: handle closed", proto.ErrBadRequest)

// OpenLocal opens the file at path in fs, a workstation's local name space,
// creating it for owner if flags ask and it is absent. Reads and writes go
// to the file itself; Close stores nothing.
func OpenLocal(fs *unixfs.FS, path string, flags OpenFlag, owner string) (*Handle, error) {
	exists := fs.Exists(path)
	switch {
	case !exists && flags&FlagCreate != 0:
		if err := fs.WriteFile(path, nil, 0o644, owner); err != nil {
			return nil, err
		}
	case !exists:
		return nil, fmt.Errorf("%w: %s", unixfs.ErrNotExist, path)
	case flags&FlagTrunc != 0:
		if err := fs.Truncate(path, 0); err != nil {
			return nil, err
		}
	}
	return &Handle{fs: fs, file: path, flags: flags}, nil
}

// Open opens the Vice file at path (a path inside the shared space, e.g.
// "/usr/satya/paper.mss").
func (v *Venus) Open(p *sim.Proc, path string, flags OpenFlag) (*Handle, error) {
	h, err := v.open(p, path, flags, nil)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// ReadFile returns the whole of the Vice file at path: an open, one read of
// the cached copy and a close, counted, traced and ordered in the LRU as
// exactly that. The handle never leaves this frame and the buffer is sized
// by the cache file itself (a second handle may hold it dirty, so the
// status's size is not the copy's), which leaves the bytes handed back as
// the only garbage of a cached read.
//
// An open that misses on a file whose reply its carrier handed over
// (rpc.Response.Owned) reads nothing back: the caller gets the reply's Bulk
// itself, a buffer no pool reuses, and the cache keeps a copy
// (installEntry). So a cold read allocates the file once, in the frame it
// arrived in. The bytes are the version fetched:
// the read takes effect at the install, and a write that another handle on
// this Venus makes after it is not in them, as with any read ordered before
// that write.
func (v *Venus) ReadFile(p *sim.Proc, path string) ([]byte, error) {
	var data []byte
	h, err := v.open(p, path, FlagRead, &data)
	if err != nil {
		return nil, err
	}
	if data == nil {
		data, err = v.cfg.Local.ReadFile(h.file)
	}
	// A read handle's close fails only if it stores what another handle
	// wrote, and that handle's own close reports it.
	_ = h.Close(p)
	return data, err
}

// WriteFile replaces the whole of the Vice file at path with data, creating
// it if need be: ReadFile's twin — an open for writing, one write at offset 0
// and the close that stores it, with the handle on this frame.
func (v *Venus) WriteFile(p *sim.Proc, path string, data []byte) error {
	h, err := v.open(p, path, FlagWrite|FlagCreate|FlagTrunc, nil)
	if err != nil {
		return err
	}
	if _, err := h.WriteAt(data, 0); err != nil {
		_ = h.Close(p)
		return err
	}
	return h.Close(p)
}

// open is Open with the handle returned by value, so a caller that closes it
// before returning keeps it on its stack. A non-nil whole is ReadFile's:
// where the open fetches, it may receive the fetched bytes (installEntry).
func (v *Venus) open(p *sim.Proc, path string, flags OpenFlag, whole *[]byte) (Handle, error) {
	path = unixfs.Clean(path)
	var hit bool // this open's own outcome, for its span
	// Opens are the hot path: when observability is off entirely, skip even
	// the span and the clock reads.
	if v.cfg.Tracer != nil || v.cfg.Metrics != nil {
		sp := v.cfg.Tracer.Begin(p, trace.SpanVenusOpen, v.cfg.Machine)
		sp.SetStr("path", path)
		started := rpc.Clock(p)
		defer func() {
			if hit {
				sp.SetInt("hit", 1)
			} else {
				sp.SetInt("hit", 0)
			}
			sp.End()
			v.mOpenLat.Observe(rpc.Clock(p).Sub(started))
		}()
	}
	e, hit, ref, stale, err := v.disc.lookup(p, path, flags)
	if err == nil && e == nil {
		e, err = v.fetchEntry(p, ref, path, flags, whole)
		if err != nil && isTransportErr(err) && v.degraded(stale, flags) {
			e, err = stale, nil
		}
	}
	if err != nil {
		return Handle{}, err
	}
	h := Handle{v: v, e: e, fs: v.cfg.Local, file: e.cacheFile, flags: flags}
	if flags&FlagTrunc != 0 {
		if err := v.cfg.Local.Truncate(h.file, 0); err != nil {
			v.unpin(e)
			return Handle{}, err
		}
		v.mu.Lock()
		e.dirty = true
		e.writes++
		e.dirEnts = nil
		e.unsaved = false
		v.mu.Unlock()
	}
	return h, nil
}

// pinLocked counts one more open handle on e and moves it to the LRU front.
// A directory's patched listing is written back first, so the handle reads
// what a walk would. Should that fail, the copy is marked stale, as a break
// would: this handle reads the listing last written, and the next open
// fetches.
//
//itcvet:holds mu
func (v *Venus) pinLocked(e *entry) *entry {
	if e.unsaved {
		enc := wire.GetEncoder()
		proto.EncodeDirEntries(enc, e.dirEnts)
		if v.cfg.Local.WriteFile(e.cacheFile, enc.Buf(), 0o600, "venus") != nil {
			e.valid = false
		}
		wire.PutEncoder(enc)
		e.unsaved = false
	}
	e.open++
	v.touch(e)
	return e
}

// unpin gives back a pin that no handle's Close will.
func (v *Venus) unpin(e *entry) {
	v.mu.Lock()
	e.open--
	v.mu.Unlock()
}

// checkOnOpen asks the custodian whether the cached copy e, at version, is
// still current, and if so serves it: a hit, pinned. A copy that is not
// current is marked stale, and one evicted while the custodian was being
// asked is no copy at all; both send the caller on to fetch (no entry, no
// error). An unreachable custodian serves it degraded, no hit, where that
// is allowed.
func (v *Venus) checkOnOpen(p *sim.Proc, e *entry, ref proto.Ref, version uint64, flags OpenFlag) (served *entry, hit bool, err error) {
	now := rpc.Clock(p)
	ok, _, err := v.testValid(p, ref, version)
	if err != nil {
		if isTransportErr(err) && v.degraded(e, flags) {
			return e, false, nil
		}
		return nil, false, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if !ok {
		e.valid = false
		return nil, false, nil
	}
	if e.lruEl == nil {
		return nil, false, nil
	}
	// Still current; a revised server re-promised in the same call (its
	// callback table is rebuilt even if it restarted meanwhile).
	e.fetchedAt = now
	return v.hitLocked(e), true, nil
}

// hitLocked counts an open served from the cached copy e, which it pins.
//
//itcvet:holds mu
func (v *Venus) hitLocked(e *entry) *entry {
	v.stats.Hits++
	v.mCacheHits.Inc()
	return v.pinLocked(e)
}

// isTransportErr reports a transport-level failure — no response at all —
// as opposed to the server rejecting the request.
func isTransportErr(err error) bool {
	return errors.Is(err, rpc.ErrUnreachable) || errors.Is(err, rpc.ErrClosed)
}

// isRedialable reports whether a fresh dial may fix the failure: transport
// errors, or a reconnect handshake that failed verification — on a lossy
// network a corrupted hello is indistinguishable from an attack by design,
// so the bounded redial budget, not the first mangled frame, decides when
// to give up.
func isRedialable(err error) bool {
	return isTransportErr(err) || errors.Is(err, secure.ErrAuthFailed)
}

// degraded serves a cached copy read-only while its custodian is
// unreachable (§2.2: network or server failures cause at worst a temporary,
// partial loss of service — not an error on data we already hold), reporting
// whether it did; if so e is pinned. Only copies still cached and not known
// stale qualify, and write-intent opens still fail: the write-on-close store
// would be lost.
func (v *Venus) degraded(e *entry, flags OpenFlag) bool {
	if e == nil || flags&(FlagWrite|FlagTrunc|FlagCreate) != 0 {
		return false
	}
	v.mu.Lock()
	if e.lruEl == nil || e.cacheFile == "" || !e.valid {
		v.mu.Unlock()
		return false
	}
	v.stats.DegradedReads++
	first := !v.degradedMode
	v.degradedMode = true
	v.pinLocked(e)
	path := e.path
	v.mu.Unlock()
	if first && v.cfg.Flight != nil {
		v.cfg.Flight.Log(trace.EventVenusDegradedEnter, v.cfg.Machine,
			"custodian unreachable; serving cached copies read-only (first: "+path+")")
	}
	return true
}

// noteSweep records a completed revalidation sweep in the flight recorder
// and, when the sweep reached every custodian, ends degraded mode: a sweep
// that got answers from the servers proves they are reachable again.
func (v *Venus) noteSweep(force bool, checked, stale int, err error) {
	v.mu.Lock()
	wasDegraded := v.degradedMode
	if err == nil {
		v.degradedMode = false
	}
	v.mu.Unlock()
	fl := v.cfg.Flight
	if fl == nil {
		return
	}
	fl.Log(trace.EventVenusReconnectSweep, v.cfg.Machine,
		fmt.Sprintf("forced=%t checked=%d stale=%d ok=%t", force, checked, stale, err == nil))
	if wasDegraded && err == nil {
		fl.Log(trace.EventVenusDegradedExit, v.cfg.Machine, "revalidation sweep reached every custodian")
	}
}

// freshLocked reports whether a revised-mode entry may be served with no
// server traffic: its promise must be intact and, under a CallbackTTL,
// recent enough by p's clock — which is read only then, so a warm walk
// without a TTL reads none. Caller holds v.mu.
func (v *Venus) freshLocked(e *entry, p *sim.Proc) bool {
	if !e.valid {
		return false
	}
	if v.cfg.CallbackTTL <= 0 {
		return true
	}
	return rpc.Clock(p).Sub(e.fetchedAt) <= v.cfg.CallbackTTL
}

// testValid asks the custodian whether a cached version is current.
func (v *Venus) testValid(p *sim.Proc, ref proto.Ref, version uint64) (bool, uint64, error) {
	sp := v.cfg.Tracer.Begin(p, trace.SpanVenusValidate, v.cfg.Machine)
	defer sp.End()
	// Routed by the ref's path even when it carries a FID (the path is then
	// empty and locates the root volume's custodian, whose wrong-server hint
	// corrects the rest): how validations have always travelled, and the
	// fingerprint goldens pin every hop.
	resp, err := v.call(p, proto.Ref{Path: ref.Path}, ref.Path,
		newRequest(proto.OpTestValid, proto.TestValidArgs{Ref: ref, Version: version}))
	defer resp.Release()
	if err != nil {
		return false, 0, err
	}
	tv, err := proto.Unmarshal(resp.Body, proto.DecodeTestValidReply)
	if err != nil {
		return false, 0, err
	}
	return tv.Valid, tv.Version, nil
}

// fetchEntry fetches the whole file from its custodian into the cache and
// returns its entry pinned. whole is open's, passed on to the install.
func (v *Venus) fetchEntry(p *sim.Proc, ref proto.Ref, path string, flags OpenFlag, whole *[]byte) (*entry, error) {
	sp := v.cfg.Tracer.Begin(p, trace.SpanVenusFetch, v.cfg.Machine)
	sp.SetStr("path", path)
	defer sp.End()
	v.mu.Lock()
	v.stats.Fetches++
	gen := v.breakGen
	v.mu.Unlock()
	resp, err := v.callRef(p, ref, path, newRequest(proto.OpFetch, proto.FetchArgs{Ref: ref}))
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	if resp.Code == proto.CodeNoEnt && flags&FlagCreate != 0 {
		return v.createFile(p, path)
	}
	if !resp.OK() {
		return nil, proto.CodeToErr(resp.Code, string(resp.Body))
	}
	st, err := proto.Unmarshal(resp.Body, proto.DecodeStatus)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	v.stats.Misses++
	v.stats.BytesFetched += int64(len(resp.Bulk))
	v.mu.Unlock()
	v.mCacheMiss.Inc()
	e, err := v.installEntry(path, st, resp.Bulk, resp.Owned, rpc.Clock(p), whole)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	if v.breakGen != gen {
		// A break arrived while the fetch was in flight; the copy we just
		// installed may already be stale. Conservatively revalidate next
		// open rather than trust it.
		e.valid = false
	}
	v.mu.Unlock()
	return e, nil
}

// createFile creates a new empty file at path on the custodian and returns
// its entry pinned.
func (v *Venus) createFile(p *sim.Proc, path string) (*entry, error) {
	dir, name := unixfs.Dir(path), unixfs.Base(path)
	dirRef, err := v.disc.ref(p, dir)
	if err != nil {
		return nil, err
	}
	resp, err := v.callRef(p, dirRef, dir,
		newRequest(proto.OpCreate, proto.NameArgs{Dir: dirRef, Name: name, Mode: 0o644}))
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	if resp.Code == proto.CodeExist {
		// The file appeared between our lookup and the create — either a
		// concurrent creator won, or our own earlier attempt executed but
		// its reply was lost and a reconnect re-issued it. FlagCreate has
		// no exclusive semantics, so open the existing file.
		v.dropDir(dir)
		return v.fetchEntry(p, proto.Ref{Path: path}, path, 0, nil)
	}
	if !resp.OK() {
		return nil, proto.CodeToErr(resp.Code, string(resp.Body))
	}
	st, err := proto.Unmarshal(resp.Body, proto.DecodeStatus)
	if err != nil {
		return nil, err
	}
	// Keep the cached directory listing usable: patch the new entry in
	// (a FID ref's listing), else drop the now-stale copy.
	if !v.patchDir(dirRef.FID, patchAdd(name, proto.TypeFile), resp) {
		v.dropDir(dir)
	}
	return v.installEntry(path, st, nil, false, rpc.Clock(p), nil)
}

// installEntry writes fetched data into the local cache, indexes it and
// returns the entry pinned — before the eviction its own arrival sets off,
// and every caller reads the cache file next. data is a reply's Bulk, and
// owned is the reply's Owned: when its carrier handed the buffer the transfer
// landed in over, that buffer becomes the cache file's contents, unless a
// whole-file reader takes it — a non-nil whole is ReadFile's, which then gets
// data itself while the cache file gets a copy. A lent Bulk is copied out of
// its frame, which the caller then releases, and whole is left alone.
//
// A new entry takes over the cache file of the entry its arrival evicts
// first, when that victim is no larger: the copy lands in the victim's
// buffer, which would otherwise be garbage a moment later. The victim leaves
// in this hold, as evictLocked would have removed it, and only its file and
// buffer move: its *entry is never reused, because checkOnOpen and degraded
// hold one unpinned across an RPC and tell an evicted entry by its lruEl
// alone. A larger victim is removed as before; its buffer would outlive it in
// a smaller file.
func (v *Venus) installEntry(path string, st proto.Status, data []byte, owned bool, now sim.Time, whole *[]byte) (*entry, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	e := v.byFID[st.FID]
	if e == nil && path != "" {
		e = v.byPath[path]
	}
	if e == nil {
		e = &entry{}
	}
	// Named once: an entry keeps its cache file for as long as it lives. Every
	// indexed entry has one, so an entry without one is new: one more file.
	file := e.cacheFile
	var donor *entry
	if file == "" {
		if d := v.victimLocked(1, st.Size); d != nil && d.status.Size <= st.Size {
			donor, file = d, d.cacheFile
		} else {
			var id [20]byte
			v.nextID++
			file = cacheDir + "/c" + string(strconv.AppendInt(id[:0], v.nextID, 10))
		}
	}
	write := v.cfg.Local.WriteFile
	if owned {
		if whole != nil {
			*whole = data // the reader's alone from here: the cache file needs a copy
		} else {
			write = v.cfg.Local.Adopt
		}
	}
	if err := write(file, data, 0o600, "venus"); err != nil {
		return nil, err
	}
	if e.cacheFile != "" {
		v.bytes -= e.status.Size
	} else {
		e.cacheFile = file // never rewritten: handles read it off the lock
	}
	e.path = path
	e.fid = st.FID
	e.status = st
	e.dirEnts = nil
	e.unsaved = false
	e.valid = true
	e.dirty = false
	e.fetchedAt = now
	v.bytes += st.Size
	v.index(e)
	v.pinLocked(e)
	if donor != nil {
		v.unindexLocked(donor)
		donor.cacheFile = ""
		v.stats.Evictions++
	}
	v.evictLocked()
	return e, nil
}

// index registers the entry under both keys. Caller holds v.mu.
//
//itcvet:holds mu
func (v *Venus) index(e *entry) {
	if e.path != "" {
		v.byPath[e.path] = e
	}
	if !e.fid.IsZero() {
		v.byFID[e.fid] = e
	}
	if e.lruEl == nil {
		e.lruEl = v.lru.PushFront(e)
	}
}

// touch moves the entry to the LRU front. Caller holds v.mu.
//
//itcvet:holds mu
func (v *Venus) touch(e *entry) {
	if e.lruEl != nil {
		v.lru.MoveToFront(e.lruEl)
	}
}

// evictLocked enforces the cache limit, least recently used first.
//
//itcvet:holds mu
func (v *Venus) evictLocked() {
	for e := v.victimLocked(0, 0); e != nil; e = v.victimLocked(0, 0) {
		v.removeLocked(e)
		v.stats.Evictions++
	}
}

// victimLocked returns the entry eviction takes next if the cache, holding
// files and bytes more than it does, is over its limit — entry count in
// prototype mode, bytes in revised mode (§5.3): the LRU-back-most entry
// neither open nor dirty. Nil when the cache is within its limit or nothing
// may be evicted.
//
//itcvet:holds mu
func (v *Venus) victimLocked(files int, bytes int64) *entry {
	if !v.disc.full(v.lru.Len()+files, v.bytes+bytes) {
		return nil
	}
	for el := v.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*entry); e.open == 0 && !e.dirty {
			return e
		}
	}
	return nil
}

// removeLocked drops an entry entirely. Caller holds v.mu.
//
//itcvet:holds mu
func (v *Venus) removeLocked(e *entry) {
	v.unindexLocked(e)
	if e.cacheFile != "" {
		_ = v.cfg.Local.Remove(e.cacheFile)
	}
}

// unindexLocked takes e off the LRU list, out of both indexes and out of the
// byte count, and leaves its cache file where it is.
//
//itcvet:holds mu
func (v *Venus) unindexLocked(e *entry) {
	if e.lruEl != nil {
		v.lru.Remove(e.lruEl)
		e.lruEl = nil
	}
	if e.path != "" {
		delete(v.byPath, e.path)
	}
	if !e.fid.IsZero() {
		delete(v.byFID, e.fid)
	}
	if e.cacheFile != "" {
		v.bytes -= e.status.Size
	}
}

// dropDir removes a cached directory listing after a local mutation makes
// it stale (the server does not break the mutator's own callback).
func (v *Venus) dropDir(path string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if e := v.byPath[unixfs.Clean(path)]; e != nil {
		v.removeLocked(e)
	}
}

// HandleCallbackBreak is wired to OpCallbackBreak on the workstation's
// endpoint: Vice tells us a cached copy is no longer valid.
func (v *Venus) HandleCallbackBreak(_ rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeCallbackBreakArgs)
	if err != nil {
		return rpc.Response{Code: proto.CodeBadRequest}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.invalidateLocked(args)
	return rpc.Response{}
}

// HandleBulkBreak is wired to OpBulkBreak on the workstation's endpoint:
// one callback RPC invalidating many cached copies at once, the coalesced
// form of OpCallbackBreak.
func (v *Venus) HandleBulkBreak(_ rpc.Ctx, req rpc.Request) rpc.Response {
	args, err := proto.Unmarshal(req.Body, proto.DecodeBulkBreakArgs)
	if err != nil {
		return rpc.Response{Code: proto.CodeBadRequest}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.invalidateLocked(args.Items...)
	return rpc.Response{}
}

// invalidateLocked is what one callback RPC does to the cache, however many
// breaks it carries: each names a copy by FID and, when the server knew one,
// by path.
//
//itcvet:holds mu
func (v *Venus) invalidateLocked(items ...proto.CallbackBreakArgs) {
	v.mBreaks.Add(int64(len(items)))
	v.stats.CallbackBreaks += int64(len(items))
	v.breakGen++
	for _, it := range items {
		if e := v.byFID[it.FID]; e != nil {
			e.valid = false
		}
		if it.Path != "" {
			if e := v.byPath[unixfs.Clean(it.Path)]; e != nil {
				e.valid = false
			}
		}
	}
}

// Read reads from the file at the handle's offset and advances it.
func (h *Handle) Read(buf []byte) (int, error) {
	n, err := h.ReadAt(buf, h.offset)
	h.offset += int64(n)
	return n, err
}

// ReadAt reads from the file at an absolute offset.
func (h *Handle) ReadAt(buf []byte, off int64) (int, error) {
	if h.closed {
		return 0, errClosed
	}
	return h.fs.ReadAt(h.file, buf, off)
}

// Write writes to the file at the handle's offset and advances it. Vice is
// not contacted until Close.
func (h *Handle) Write(buf []byte) (int, error) {
	n, err := h.WriteAt(buf, h.offset)
	h.offset += int64(n)
	return n, err
}

// WriteAt writes to the file at an absolute offset.
func (h *Handle) WriteAt(buf []byte, off int64) (int, error) {
	if h.closed {
		return 0, errClosed
	}
	if h.flags&FlagWrite == 0 {
		return 0, fmt.Errorf("%w: handle not open for writing", proto.ErrAccess)
	}
	n, err := h.fs.WriteAt(h.file, buf, off)
	if err == nil && h.e != nil {
		h.v.mu.Lock()
		h.e.dirty = true
		h.e.writes++
		h.e.dirEnts = nil
		h.e.unsaved = false
		h.v.mu.Unlock()
	}
	return n, err
}

// Seek positions the handle (whence 0=set, 1=cur, 2=end). A position before
// the start of the file fails, as lseek's does, and leaves the offset alone.
func (h *Handle) Seek(off int64, whence int) (int64, error) {
	if h.closed {
		// Unpinned, the cache file may be another entry's by now.
		return 0, errClosed
	}
	switch whence {
	case 0:
	case 1:
		off += h.offset
	case 2:
		st, err := h.fs.Stat(h.file)
		if err != nil {
			return 0, err
		}
		off += st.Size
	default:
		return 0, fmt.Errorf("%w: whence %d", proto.ErrBadRequest, whence)
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: seek to %d", proto.ErrBadRequest, off)
	}
	h.offset = off
	return off, nil
}

// Status returns the Vice status of the open file (as of open/last store);
// a local file has none, and its handle returns the zero Status.
func (h *Handle) Status() proto.Status {
	if h.e == nil {
		return proto.Status{}
	}
	h.v.mu.Lock()
	defer h.v.mu.Unlock()
	return h.e.status
}

// Close releases the handle; closing it again does nothing. If a Vice
// file's cached copy was modified, it is transmitted to the custodian now —
// write-on-close, which keeps crash recovery simple and approximates
// timesharing visibility (§3.2).
func (h *Handle) Close(p *sim.Proc) error {
	if h.closed {
		return nil
	}
	h.closed = true
	v, e := h.v, h.e
	if v == nil {
		return nil
	}
	v.mu.Lock()
	if !e.dirty {
		e.open--
		v.mu.Unlock()
		return nil
	}
	v.mu.Unlock()
	err := v.storeEntry(p, e)
	v.mu.Lock()
	if err != nil {
		// The store failed and the caller is told so. Drop the modified
		// copy: left dirty it would be served by every later open and
		// silently stored by a later close — a write the application saw
		// fail must never resurrect.
		e.dirty = false
		e.valid = false
	}
	e.open--
	v.mu.Unlock()
	return err
}

// storeEntry transmits the cached copy back to the custodian. The caller
// holds e pinned.
func (v *Venus) storeEntry(p *sim.Proc, e *entry) error {
	// Lent, not copied, for as long as the call lasts: a write through
	// another handle while the store is in flight replaces the cache file's
	// contents and leaves these bytes alone. Such a write is not in the bytes
	// being stored, so the entry must stay dirty for that handle's close: the
	// write count is sampled before the loan and compared when the reply
	// arrives. Conn reads a request's Bulk only until Call returns, so the
	// loan ends there, and later writes edit the cache file in place again.
	v.mu.Lock()
	path, fid, writes := e.path, e.fid, e.writes
	v.mu.Unlock()
	sp := v.cfg.Tracer.Begin(p, trace.SpanVenusStore, v.cfg.Machine)
	sp.SetStr("path", path)
	started := rpc.Clock(p)
	defer func() {
		sp.End()
		v.mStoreLat.Observe(rpc.Clock(p).Sub(started))
	}()
	data, err := v.cfg.Local.Lend(e.cacheFile)
	if err != nil {
		return err
	}
	ref := v.disc.name(path, fid)
	v.mu.Lock()
	v.stats.Stores++
	v.stats.BytesStored += int64(len(data))
	gen := v.breakGen
	v.mu.Unlock()
	req := newRequest(proto.OpStore, proto.StoreArgs{Ref: ref})
	req.Bulk = data
	resp, err := v.callRef(p, ref, path, req)
	v.cfg.Local.Return(e.cacheFile, data)
	if err != nil {
		return err
	}
	defer resp.Release()
	if !resp.OK() {
		return proto.CodeToErr(resp.Code, string(resp.Body))
	}
	st, err := proto.Unmarshal(resp.Body, proto.DecodeStatus)
	if err != nil {
		return err
	}
	v.mu.Lock()
	v.bytes += st.Size - e.status.Size
	e.status = st
	e.fid = st.FID
	e.dirty = e.writes != writes
	// Valid only if no break raced the store: a concurrent writer may have
	// superseded our version while the reply was in flight.
	e.valid = v.breakGen == gen
	e.fetchedAt = rpc.Clock(p)
	v.index(e)
	v.evictLocked() // the stored file may have grown past the cache limit
	v.mu.Unlock()
	return nil
}
