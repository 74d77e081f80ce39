// Package itcfs is a from-scratch implementation of the ITC Distributed
// File System ("The ITC Distributed File System: Principles and Design",
// Satyanarayanan et al., SOSP 1985) — the system that became AFS.
//
// The package assembles complete cells: a simulated campus network of
// clusters bridged to a backbone (netsim), Vice cluster servers holding the
// shared name space in volumes, and Virtue workstations whose Venus cache
// managers keep whole-file copies on local disks. Authentication,
// end-to-end encryption, access lists with negative rights, callbacks,
// volumes with read-only clones, advisory locks and the replicated location
// and protection databases are all implemented; both the paper's prototype
// (check-on-open, pathname servers) and its revised design (callbacks,
// FIDs, client-side traversal) are selectable per cell.
//
// Cells run in deterministic virtual time on a discrete-event kernel, which
// is what lets the benchmark harness regenerate the paper's evaluation
// (server utilization, call mix, cache hit ratios, the five-phase
// benchmark) on a laptop. The same Vice code also serves real TCP clients
// through cmd/itcfsd.
//
// A minimal session:
//
//	cell := itcfs.NewCell(itcfs.CellConfig{Clusters: 1, Mode: itcfs.Revised})
//	cell.AddUser("satya", "password")
//	ws := cell.AddWorkstation(0, "ws1")
//	cell.Run(func(p *sim.Proc) {
//		ws.Login(p, "satya", "password")
//		ws.FS.WriteFile(p, "/vice/usr/satya/notes", []byte("hello"))
//	})
package itcfs

import (
	"fmt"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/store"
	"itcfs/internal/trace"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
	"itcfs/internal/vice"
	"itcfs/internal/virtue"
)

// Mode re-exports the implementation mode.
type Mode = vice.Mode

// Modes.
const (
	Prototype = vice.Prototype
	Revised   = vice.Revised
)

// Commonly needed names re-exported for callers of the public API.
var (
	ErrAccess   = proto.ErrAccess
	ErrNoEnt    = proto.ErrNoEnt
	ErrQuota    = proto.ErrQuota
	ErrLocked   = proto.ErrLocked
	ErrReadOnly = proto.ErrReadOnly
	ErrOffline  = proto.ErrOffline
)

// Stats re-exports Venus's counters.
type Stats = venus.Stats

// Open flags, re-exported from Venus.
const (
	FlagRead   = venus.FlagRead
	FlagWrite  = venus.FlagWrite
	FlagCreate = venus.FlagCreate
	FlagTrunc  = venus.FlagTrunc
)

// CellConfig sizes a cell.
type CellConfig struct {
	Mode     Mode
	Clusters int         // one cluster server per cluster, on netsim.ITCDefaults
	Costs    *CostConfig // nil = DefaultCosts
	// CacheBytes overrides the revised Venus cache limit (0 = the default).
	CacheBytes int64

	// Fault-tolerance knobs. Zero values preserve the default behaviour
	// (long timeouts, no retries, callbacks trusted forever).
	//
	// CallTimeout overrides the per-call RPC timeout on every endpoint.
	CallTimeout time.Duration
	// Retry configures RPC retransmission with exponential backoff on
	// every endpoint (servers and workstations alike).
	Retry rpc.RetryPolicy
	// CallbackTTL bounds how long Venus trusts a callback promise without
	// revalidating (revised mode; see venus.Config.CallbackTTL).
	CallbackTTL time.Duration
	// ReconnectRetries lets Venus redial a server and re-issue a call
	// after a transport failure (see venus.Config.ReconnectRetries).
	ReconnectRetries int

	// Batching ablation knobs (E14). Zero values keep batching on.
	//
	// UnbatchedBreaks forces servers to send one callback RPC per broken
	// promise instead of coalescing per-client BulkBreak batches.
	UnbatchedBreaks bool
	// RevalidateBatch caps entries per BulkTestValid sweep RPC (0 = the
	// Venus default; 1 = one legacy TestValid per entry, unbatched).
	RevalidateBatch int
	// BreakWindow widens the servers' callback coalescing window (0 = the
	// vice default): updates wait up to this long extra before replying so
	// concurrent updates' breaks to one workstation share an RPC.
	BreakWindow time.Duration

	// Observability. Both default off, costing nothing on the hot paths.
	//
	// Trace records causally linked spans across Venus, the RPC transport,
	// the network and Vice, in virtual time: identical seeds yield
	// byte-identical exported traces. Read them from Cell.Tracer.
	Trace bool
	// TracePolicy, when set, is the deterministic sampling policy: a
	// keep-one-in-n rate with a seeded phase per op class and a slow
	// always-keep threshold (see trace.SamplePolicy). Sampling decides per operation, so
	// a kept operation is always complete. Nil keeps every operation; ignored
	// unless Trace is set.
	TracePolicy *trace.SamplePolicy
	// Metrics, when set, receives counters and histograms from every layer
	// (cache hits, RPC latency, link utilization, per-volume service time).
	Metrics *trace.Registry
	// FlightEvents, when positive, attaches a flight recorder retaining that
	// many operational events (RPC retries, callback break storms, salvages,
	// degraded-mode entry/exit, reconnect sweeps) with virtual timestamps.
	// Read it from Cell.Flight.
	FlightEvents int

	// Store, when set, supplies a durable store per server (argument is the
	// server index; return nil for volatile). The default — nil everywhere —
	// keeps volumes in memory, exactly the pre-durability behaviour; attach
	// a walstore, on store.NewMemFS() to journal without touching disk or on
	// a directory for real files. Each server recovers what its store holds
	// as it boots, as itcfsd's does. The simulator's determinism is
	// unaffected either way (see TestStoreDeterminism).
	Store func(server int) store.Store
}

// Server is one Vice cluster server with its simulated devices.
type Server struct {
	Vice     *vice.Server
	Endpoint *rpc.Endpoint
	Node     *netsim.Node
	Cluster  *netsim.Cluster
	CPU      *sim.Resource
	Disk     *sim.Resource
}

// Workstation is one Virtue workstation.
type Workstation struct {
	Name     string
	Node     *netsim.Node
	Cluster  *netsim.Cluster
	Endpoint *rpc.Endpoint
	Local    *unixfs.FS
	Venus    *venus.Venus
	FS       *virtue.FS

	key secure.Key
}

// operatorPassword is the password of a cell's bootstrap operations account,
// "operator".
const operatorPassword = "operator-password"

// Cell is a complete ITC file system installation.
type Cell struct {
	Kernel   *sim.Kernel
	Net      *netsim.Network
	Servers  []*Server
	Clusters []*netsim.Cluster
	Mode     Mode
	// Tracer is non-nil when CellConfig.Trace was set; Tracer.Spans() holds
	// every finished span after a run.
	Tracer *trace.Tracer
	// Metrics echoes CellConfig.Metrics.
	Metrics *trace.Registry
	// Flight is the cell-wide flight recorder, non-nil when
	// CellConfig.FlightEvents was positive.
	Flight *trace.Recorder
	// Sampler is the time-series sampler installed by StartSampling (nil
	// before the first call).
	Sampler *trace.Sampler
	// Contents is the table every workstation's local file system keeps
	// its files' bytes in: a file that many workstations cache is held
	// once. Each workstation's cache still counts it in full.
	Contents *unixfs.Contents

	cfg         CellConfig
	costs       CostConfig
	callTimeout time.Duration // of every endpoint's calls
	serverKey   secure.Key
	workst      []*Workstation
}

// NewCell builds and bootstraps a cell: clusters, servers, replicated
// databases, the root volume, and inter-server connections. It runs the
// simulation kernel briefly to complete the bootstrap handshakes; the
// returned cell's clock sits just past that bootstrap.
func NewCell(cfg CellConfig) *Cell {
	if cfg.Clusters <= 0 {
		cfg.Clusters = 1
	}
	costs := DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	// Whole-file operations on multi-megabyte files legitimately take
	// minutes at 1985 speeds (§2.2 bounds the design to files of a few
	// MB); the default timeout must outlast them.
	callTimeout := 15 * time.Minute
	if cfg.CallTimeout != 0 {
		callTimeout = cfg.CallTimeout
	}
	k := sim.NewKernel()
	c := &Cell{
		Kernel:      k,
		Net:         netsim.New(k, netsim.ITCDefaults()),
		Mode:        cfg.Mode,
		Contents:    unixfs.NewContents(),
		cfg:         cfg,
		costs:       costs,
		callTimeout: callTimeout,
	}
	if cfg.Trace {
		c.Tracer = trace.New(func() sim.Time { return k.Now() })
		if cfg.TracePolicy != nil {
			c.Tracer.SetPolicy(*cfg.TracePolicy)
		}
	}
	c.Metrics = cfg.Metrics
	if c.Metrics != nil {
		c.Net.SetMetrics(c.Metrics)
	}
	if cfg.FlightEvents > 0 {
		c.Flight = trace.NewRecorder(cfg.FlightEvents, func() sim.Time { return k.Now() })
		c.Flight.AttachMetrics(c.Metrics)
	}
	serverKey, err := secure.NewSessionKey()
	if err != nil {
		panic(err)
	}
	c.serverKey = serverKey

	// The servers, booted as every cell is: the server identity goes into
	// the protection database first, ahead of the operations staff.
	base := prot.NewDB()
	if err := base.Apply(prot.Mutation{Kind: prot.MutAddUser, Name: vice.ServerUser, Key: serverKey}); err != nil {
		panic(fmt.Sprintf("itcfs: bootstrap: %v", err))
	}
	clock := func() int64 { return int64(k.Now()) }
	cfgs := make([]vice.Config, cfg.Clusters)
	for i := range cfgs {
		cfgs[i] = vice.Config{
			Name:            fmt.Sprintf("server%d", i),
			Mode:            cfg.Mode,
			Clock:           clock,
			Metrics:         cfg.Metrics,
			Flight:          c.Flight,
			UnbatchedBreaks: cfg.UnbatchedBreaks,
			BreakWindow:     cfg.BreakWindow,
		}
		if cfg.Store != nil {
			cfgs[i].Store = cfg.Store(i)
		}
	}
	vss, _, err := vice.BootCell(cfgs, base, operatorPassword)
	if err != nil {
		panic(fmt.Sprintf("itcfs: bootstrap: %v", err))
	}
	for i, vs := range vss {
		cl := c.Net.AddCluster(fmt.Sprintf("cluster%d", i))
		c.Clusters = append(c.Clusters, cl)
		node := c.Net.AddNode(vs.Name(), cl)
		cpu := sim.NewResource(k, fmt.Sprintf("server%d-cpu", i))
		disk := sim.NewResource(k, fmt.Sprintf("server%d-disk", i))
		ep := rpc.NewEndpoint(c.Net, node, rpc.EndpointConfig{
			Keys:        vs.DB().LookupKey,
			Server:      vs.Dispatcher(),
			Bill:        costs.Bill(cfg.Mode, cpu, disk),
			CallTimeout: callTimeout,
			Retry:       cfg.Retry,
			Tracer:      c.Tracer,
			Metrics:     cfg.Metrics,
			Flight:      c.Flight,
		})
		c.Servers = append(c.Servers, &Server{
			Vice: vs, Endpoint: ep, Node: node, Cluster: cl, CPU: cpu, Disk: disk,
		})
	}

	// Wire servers to each other over the network, authenticated as the
	// server identity.
	c.Run(func(p *sim.Proc) {
		for i, from := range c.Servers {
			for j, to := range c.Servers {
				if i == j {
					continue
				}
				conn, err := from.Endpoint.Dial(p, to.Node.ID, vice.ServerUser, serverKey)
				if err != nil {
					panic(fmt.Sprintf("itcfs: server peering: %v", err))
				}
				from.Vice.AddPeer(to.Vice.Name(), conn)
			}
		}
	})
	return c
}

// Run spawns fn as a simulated process and drives the kernel until all
// pending events drain. It is the main entry point for scripted scenarios.
func (c *Cell) Run(fn func(p *sim.Proc)) {
	c.Kernel.Spawn("cell-run", fn)
	c.Kernel.Run()
}

// Do is Run for a step that can fail: it returns fn's error once the kernel
// has drained. Like Run it is a barrier — pending timers fire and virtual time
// moves past them — so two steps are not the same as one step doing both.
func (c *Cell) Do(fn func(p *sim.Proc) error) (err error) {
	c.Run(func(p *sim.Proc) { err = fn(p) })
	return err
}

// Now returns the cell's virtual time.
func (c *Cell) Now() sim.Time { return c.Kernel.Now() }

// StartSampling installs a time-series sampler over the cell: every registry
// instrument plus probes for per-server CPU/disk busy time and queue depth
// and per-link busy time, sampled every cadence of virtual time until
// horizon from now. The horizon bounds the tick events so Kernel.Run still
// terminates once workload drains. Sampling is read-only: it never perturbs
// any workload outcome, only adds tick events to the schedule. The sampler is
// also stored in Cell.Sampler.
func (c *Cell) StartSampling(every, horizon time.Duration) *trace.Sampler {
	s := trace.NewSampler(c.Metrics, every)
	if c.Tracer != nil {
		s.AttachExemplars(c.Tracer.TakeExemplars)
	}
	for _, srv := range c.Servers {
		srv := srv
		s.AddCumulative(trace.ServerCPUSeries(srv.Vice.Name()), func() int64 { return int64(srv.CPU.BusyTime()) })
		s.AddCumulative(trace.ServerDiskSeries(srv.Vice.Name()), func() int64 { return int64(srv.Disk.BusyTime()) })
		s.AddInstant(trace.ServerQueueSeries(srv.Vice.Name()), func() int64 { return int64(srv.CPU.QueueLen()) })
	}
	for _, l := range c.Net.Links() {
		l := l
		s.AddCumulative(trace.LinkBusySeries(l.Name()), func() int64 { return int64(l.BusyTime()) })
	}
	s.Start(c.Kernel, horizon)
	c.Sampler = s
	return s
}

// AddUser registers a user (and password) in every server's protection
// database replica. Bootstrap-time convenience; at runtime use the
// protection server through Admin connections.
func (c *Cell) AddUser(name, password string) {
	m := prot.Mutation{Kind: prot.MutAddUser, Name: name, Key: secure.DeriveKey(name, password)}
	for _, s := range c.Servers {
		if err := s.Vice.DB().Apply(m); err != nil {
			panic(fmt.Sprintf("itcfs: AddUser(%s): %v", name, err))
		}
	}
}

// Workstations returns every workstation added so far.
func (c *Cell) Workstations() []*Workstation { return c.workst }

// AddWorkstation attaches a new Virtue workstation to a cluster.
func (c *Cell) AddWorkstation(cluster int, name string) *Workstation {
	cl := c.Clusters[cluster]
	node := c.Net.AddNode(name, cl)
	local := unixfs.NewShared(func() int64 { return int64(c.Kernel.Now()) }, c.Contents)

	ws := &Workstation{Name: name, Node: node, Cluster: cl, Local: local}

	// The workstation's callback service.
	cbServer := rpc.NewServer()
	ws.Endpoint = rpc.NewEndpoint(c.Net, node, rpc.EndpointConfig{
		Server:      cbServer,
		CallTimeout: c.callTimeout,
		Retry:       c.cfg.Retry,
		Tracer:      c.Tracer,
		Metrics:     c.cfg.Metrics,
		Flight:      c.Flight,
	})

	home := c.Servers[cluster]
	ws.FS = virtue.NewWorkstation(venus.Config{
		Mode:             c.Mode,
		Machine:          name,
		Local:            local,
		HomeServer:       home.Vice.Name(),
		MaxBytes:         c.cfg.CacheBytes,
		CallbackTTL:      c.cfg.CallbackTTL,
		ReconnectRetries: c.cfg.ReconnectRetries,
		RevalidateBatch:  c.cfg.RevalidateBatch,
		Tracer:           c.Tracer,
		Metrics:          c.cfg.Metrics,
		Flight:           c.Flight,
		Connect: func(p *sim.Proc, server string) (venus.Conn, error) {
			srv := c.serverByName(server)
			if srv == nil {
				return nil, fmt.Errorf("itcfs: unknown server %s", server)
			}
			return ws.Endpoint.Dial(p, srv.Node.ID, ws.Venus.User(), ws.key)
		},
	}, cbServer)
	ws.Venus = ws.FS.Venus()
	c.workst = append(c.workst, ws)
	return ws
}

// CrashServer fails server i: its node stops transmitting and receiving,
// every open connection into and out of it is lost, and the in-memory
// volatile state — callback promises and the lock table — dies with the
// process. Volumes survive on disk (§3.3: "the callback mechanism ... is
// reinitialized when a server is restarted").
func (c *Cell) CrashServer(i int) {
	s := c.Servers[i]
	c.Net.SetNodeDown(s.Node.ID, true)
	s.Endpoint.Crash()
	s.Vice.Crash()
}

// RestartServer brings a crashed server back: its node rejoins the network
// with empty callback and lock tables, and a background process re-peers it
// with every other server (both directions, since the peers' connections
// into it died too). Clients rediscover it through Venus's reconnect path.
func (c *Cell) RestartServer(i int) {
	s := c.Servers[i]
	c.Net.SetNodeDown(s.Node.ID, false)
	s.Endpoint.Restart()
	c.Kernel.Spawn(fmt.Sprintf("repeer-%s", s.Vice.Name()), func(p *sim.Proc) {
		for j, other := range c.Servers {
			if j == i {
				continue
			}
			if conn, err := s.Endpoint.Dial(p, other.Node.ID, vice.ServerUser, c.serverKey); err == nil {
				s.Vice.AddPeer(other.Vice.Name(), conn)
			}
			if conn, err := other.Endpoint.Dial(p, s.Node.ID, vice.ServerUser, c.serverKey); err == nil {
				other.Vice.AddPeer(s.Vice.Name(), conn)
			}
		}
	})
}

func (c *Cell) serverByName(name string) *Server {
	for _, s := range c.Servers {
		if s.Vice.Name() == name {
			return s
		}
	}
	return nil
}

// Login authenticates user at this workstation; subsequent file operations
// run on the user's behalf. The password never leaves the workstation —
// only the key derived from it is used in the handshake (§3.4).
func (ws *Workstation) Login(p *sim.Proc, user, password string) error {
	ws.key = secure.DeriveKey(user, password)
	ws.Venus.Login(user)
	// Probe the home server so a bad password fails here, not on first use.
	_, err := ws.Venus.Stat(p, "/")
	if err != nil {
		ws.Venus.Login("")
		return fmt.Errorf("itcfs: login %s: %w", user, err)
	}
	return nil
}

// Admin is the operator's client: the administrative calls of §3.6 placed on
// one authenticated connection, simulated (Cell.Admin) or real (cmd/itcfs).
type Admin struct {
	conn   rpc.Conn
	server string
}

// NewAdmin wraps conn, a connection authenticated as a member of the
// operations staff to the server named server.
func NewAdmin(conn rpc.Conn, server string) *Admin {
	return &Admin{conn: conn, server: server}
}

// Admin dials server (index) as the operator account.
func (c *Cell) Admin(p *sim.Proc, server int) (*Admin, error) {
	// The admin connection originates from the server's own node — the
	// operations console lives in the machine room.
	s := c.Servers[server]
	conn, err := s.Endpoint.Dial(p, s.Node.ID, "operator",
		secure.DeriveKey("operator", operatorPassword))
	if err != nil {
		return nil, err
	}
	return NewAdmin(conn, s.Vice.Name()), nil
}

func (a *Admin) call(p *sim.Proc, op uint16, body []byte) (rpc.Response, error) {
	resp, err := a.conn.Call(p, rpc.Request{Op: rpc.Op(op), Body: body})
	if err != nil {
		return resp, err
	}
	if !resp.OK() {
		return resp, proto.CodeToErr(resp.Code, string(resp.Body))
	}
	return resp, nil
}

// CreateVolume creates a volume mounted at path, owned by owner. Parent
// directories must exist; the mount entry lands in the parent's volume.
func (a *Admin) CreateVolume(p *sim.Proc, name, path, owner string, quota int64) (uint32, error) {
	resp, err := a.call(p, proto.OpVolCreate,
		proto.Marshal(proto.VolCreateArgs{Name: name, Path: path, Quota: quota, Owner: owner}))
	if err != nil {
		return 0, err
	}
	vs, err := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
	if err != nil {
		return 0, err
	}
	return vs.Volume, nil
}

// MkdirAll creates path and missing ancestors in the shared space.
func (a *Admin) MkdirAll(p *sim.Proc, path string) error {
	parts := vice.PathWithin(proto.LocEntry{Prefix: "/"}, path)
	cur := ""
	for _, part := range parts {
		parent := cur
		if parent == "" {
			parent = "/"
		}
		cur = cur + "/" + part
		resp, err := a.conn.Call(p, rpc.Request{
			Op:   rpc.Op(proto.OpMakeDir),
			Body: proto.Marshal(proto.NameArgs{Dir: proto.Ref{Path: parent}, Name: part, Mode: 0o755}),
		})
		if err != nil {
			return err
		}
		if !resp.OK() && resp.Code != proto.CodeExist {
			return proto.CodeToErr(resp.Code, string(resp.Body))
		}
	}
	return nil
}

// CloneVolume freezes a read-only snapshot of vol, mounts it at path (if
// non-empty) and replicates it to the named servers.
func (a *Admin) CloneVolume(p *sim.Proc, vol uint32, path string, replicas ...string) (uint32, error) {
	resp, err := a.call(p, proto.OpVolClone,
		proto.Marshal(proto.VolCloneArgs{Volume: vol, Path: path, Replicas: replicas}))
	if err != nil {
		return 0, err
	}
	vs, err := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
	if err != nil {
		return 0, err
	}
	return vs.Volume, nil
}

// MoveVolume reassigns vol to the named custodian.
func (a *Admin) MoveVolume(p *sim.Proc, vol uint32, target string) error {
	_, err := a.call(p, proto.OpVolMove, proto.Marshal(proto.VolMoveArgs{Volume: vol, Target: target}))
	return err
}

// SetQuota changes a volume's byte quota.
func (a *Admin) SetQuota(p *sim.Proc, vol uint32, quota int64) error {
	_, err := a.call(p, proto.OpVolSetQuota, proto.Marshal(proto.VolSetQuotaArgs{Volume: vol, Quota: quota}))
	return err
}

// VolumeStatus queries one volume.
func (a *Admin) VolumeStatus(p *sim.Proc, vol uint32) (proto.VolStatusReply, error) {
	resp, err := a.call(p, proto.OpVolStatus, proto.Marshal(proto.VolStatusArgs{Volume: vol}))
	if err != nil {
		return proto.VolStatusReply{}, err
	}
	return proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
}

// Salvage runs crash recovery on the connected server's volumes (volume 0
// = all) and returns what it repaired.
func (a *Admin) Salvage(p *sim.Proc, vol uint32) (proto.SalvageReply, error) {
	resp, err := a.call(p, proto.OpVolSalvage, proto.Marshal(proto.VolStatusArgs{Volume: vol}))
	if err != nil {
		return proto.SalvageReply{}, err
	}
	return proto.Unmarshal(resp.Body, proto.DecodeSalvageReply)
}

// Protect applies a protection-database mutation through the protection
// server (which replicates it everywhere). The Admin must be connected to
// the authority (server 0).
func (a *Admin) Protect(p *sim.Proc, m prot.Mutation) error {
	_, err := a.call(p, proto.OpProtMutate, proto.Marshal(m))
	return err
}

// NewUser creates a user with a password and a home volume at
// /usr/<name>, the standard provisioning sequence.
func (a *Admin) NewUser(p *sim.Proc, name, password string, quota int64) error {
	_, err := a.NewUserAt(p, name, password, quota, "")
	return err
}

// NewUserAt provisions a user and then reassigns the home volume to the
// named custodian — how files are placed in the cluster of the user's usual
// workstation "to balance server load and minimize cross-cluster
// references" (§3.1). An empty server, or the connected one, leaves the
// volume where it was created.
func (a *Admin) NewUserAt(p *sim.Proc, name, password string, quota int64, server string) (uint32, error) {
	if err := a.Protect(p, prot.Mutation{
		Kind: prot.MutAddUser, Name: name, Key: secure.DeriveKey(name, password),
	}); err != nil {
		return 0, err
	}
	if err := a.MkdirAll(p, "/usr"); err != nil {
		return 0, err
	}
	vid, err := a.CreateVolume(p, "user."+name, "/usr/"+name, name, quota)
	if err != nil {
		return 0, err
	}
	if server != "" && server != a.server {
		if err := a.MoveVolume(p, vid, server); err != nil {
			return 0, err
		}
	}
	return vid, nil
}
