package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
	"itcfs/internal/trace"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
	"itcfs/internal/vice"
	"itcfs/internal/virtue"
	"itcfs/internal/volume"
)

// A cell is one Vice server and its workstations in this process, assembled
// the way cmd/itcfsd and cmd/itcfs assemble them: the server keeps its
// volumes in a walstore on a real directory (fsync on), listens on loopback
// TCP and authenticates every connection; each workstation dials it, runs the
// handshake, and puts a Revised-mode Venus and a virtue.FS on top.

const (
	serverName = "server0"
	opUser     = "operator"
	password   = "itcperf"
)

// countFS is the one always-on shim: it counts the bytes and calls that
// reach the disk (two atomic adds per append, no clock read) and remembers,
// per log file, how much of it an fsync has covered — the crash check
// truncates a copy of the log there, because a process that merely exits
// keeps its unflushed bytes in the OS cache and would prove nothing.
type countFS struct {
	inner store.FS

	appends     atomic.Int64
	appendBytes atomic.Int64
	fsyncs      atomic.Int64
	atomicBytes atomic.Int64 // WriteFileAtomic payloads (checkpoints, log resets)

	mu    sync.Mutex
	files map[string]*logState // guarded by mu
}

type logState struct {
	size   atomic.Int64 // bytes in the file
	synced atomic.Int64 // prefix known durable
}

func newCountFS(inner store.FS) *countFS {
	return &countFS{inner: inner, files: make(map[string]*logState)}
}

func (c *countFS) state(name string) *logState {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.files[name]
	if s == nil {
		s = &logState{}
		c.files[name] = s
	}
	return s
}

func (c *countFS) Open(name string) (store.File, error) {
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &countFile{inner: f, fs: c, st: c.state(name)}, nil
}

func (c *countFS) ReadFile(name string) ([]byte, error) { return c.inner.ReadFile(name) }

func (c *countFS) WriteFileAtomic(name string, data []byte) error {
	if err := c.inner.WriteFileAtomic(name, data); err != nil {
		return err
	}
	c.atomicBytes.Add(int64(len(data)))
	st := c.state(name)
	st.size.Store(int64(len(data)))
	st.synced.Store(int64(len(data)))
	return nil
}

func (c *countFS) Truncate(name string, size int64) error {
	if err := c.inner.Truncate(name, size); err != nil {
		return err
	}
	st := c.state(name)
	st.size.Store(size)
	if st.synced.Load() > size {
		st.synced.Store(size)
	}
	return nil
}

func (c *countFS) Remove(name string) error { return c.inner.Remove(name) }

// diskBytes is everything written through the store's file system.
func (c *countFS) diskBytes() int64 { return c.appendBytes.Load() + c.atomicBytes.Load() }

// syncedSizes maps each file the store wrote to its durable prefix length.
func (c *countFS) syncedSizes() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.files))
	for name, st := range c.files {
		out[name] = st.synced.Load()
	}
	return out
}

type countFile struct {
	inner store.File
	fs    *countFS
	st    *logState
}

func (f *countFile) Append(b []byte) error {
	if err := f.inner.Append(b); err != nil {
		return err
	}
	f.st.size.Add(int64(len(b)))
	f.fs.appendBytes.Add(int64(len(b)))
	f.fs.appends.Add(1)
	return nil
}

func (f *countFile) Sync() error {
	covers := f.st.size.Load()
	if err := f.inner.Sync(); err != nil {
		return err
	}
	f.fs.fsyncs.Add(1)
	for {
		cur := f.st.synced.Load()
		if cur >= covers || f.st.synced.CompareAndSwap(cur, covers) {
			return nil
		}
	}
}

func (f *countFile) Close() error { return f.inner.Close() }

// cell is a running server plus its clients.
type cell struct {
	dir     string
	disk    *countFS
	st      store.Store
	srv     *vice.Server
	db      *prot.DB
	metrics *trace.Registry
	l       net.Listener
	tr      *tracer       // nil in end-to-end runs: no interposers at all
	ts      *tracedServer // nil unless tr is set
	accept  sync.WaitGroup
	// ready carries one token per accepted connection, sent once the server
	// side has finished configuring its Peer. AcceptPeer starts serving
	// before SetMetrics can be called (as in cmd/itcfsd), so a client that
	// calls at once races with it; addClient waits for the token instead
	// (README, known defect d).
	ready chan struct{}

	mu      sync.Mutex
	peers   []*rpc.Peer        // guarded by mu (accepted, for shutdown)
	clients []*client          // guarded by mu
	byUser  map[string]*client // guarded by mu
	closed  bool               // guarded by mu
}

// client is one workstation.
type client struct {
	user  string
	peer  *rpc.Peer
	local *unixfs.FS
	v     *venus.Venus
	fs    *virtue.FS

	// Trace context of the op this (closed-loop) client has in flight.
	curOp, curAPI, curCall atomic.Uint64
}

// startCell opens (or recovers) the store in dir and starts serving. With a
// tracer every seam gets its interposer; without, the wiring is exactly the
// daemon's.
func startCell(dir string, tr *tracer) (*cell, error) {
	c := &cell{dir: dir, tr: tr, byUser: make(map[string]*client), ready: make(chan struct{}, 1)}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c.disk = newCountFS(store.DirFS(dir))
	var fsys store.FS = c.disk
	if tr != nil {
		fsys = &tracedFS{inner: fsys, tr: tr}
	}
	ws, err := walstore.Open(fsys)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	c.st = ws
	if tr != nil {
		c.st = &tracedStore{inner: ws, tr: tr}
	}

	c.db = prot.NewDB()
	for _, m := range []prot.Mutation{
		{Kind: prot.MutAddUser, Name: opUser, Key: secure.DeriveKey(opUser, password)},
		{Kind: prot.MutAddGroup, Name: vice.AdminGroup, Owner: opUser},
		{Kind: prot.MutAddMember, Name: vice.AdminGroup, Member: opUser},
	} {
		if err := c.db.Apply(m); err != nil {
			return nil, fmt.Errorf("bootstrap: %w", err)
		}
	}
	clock := func() int64 { return now() }
	c.metrics = trace.NewRegistry()
	nextVol := uint32(1)
	locdb := vice.NewLocDB()
	c.srv = vice.New(vice.Config{
		Name:          serverName,
		Mode:          vice.Revised,
		DB:            c.db,
		Loc:           locdb,
		Clock:         clock,
		ProtAuthority: true,
		AllocVolID:    func() uint32 { nextVol++; return nextVol },
		Metrics:       c.metrics,
		Store:         c.st,
	})
	if _, err := c.srv.RecoverStore(); err != nil {
		return nil, fmt.Errorf("recover store: %w", err)
	}
	for _, id := range c.srv.VolumeIDs() {
		if id > nextVol {
			nextVol = id
		}
	}
	for _, e := range locdb.Entries() {
		if e.Volume > nextVol {
			nextVol = e.Volume
		}
	}
	if _, ok := c.srv.Volume(1); !ok {
		rootACL := prot.NewACL()
		rootACL.Grant(prot.AnyUser, prot.RightLookup|prot.RightRead)
		rootACL.Grant(vice.AdminGroup, prot.RightsAll)
		if err := c.srv.AddVolume(volume.New(1, "root", rootACL, 0, opUser, clock)); err != nil {
			return nil, fmt.Errorf("root volume: %w", err)
		}
		if err := c.srv.InstallLoc([]proto.LocEntry{{Prefix: "/", Volume: 1, Custodian: serverName}}, nil); err != nil {
			return nil, fmt.Errorf("root location: %w", err)
		}
	}

	disp := c.srv.Dispatcher()
	if tr != nil {
		c.ts = &tracedServer{tr: tr, inner: disp, cell: c, backs: make(map[rpc.Backchannel]*tracedBack)}
		disp = rpc.NewServer()
		disp.HandleFallback(c.ts.dispatch)
	}
	c.l, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.accept.Add(1)
	go c.acceptLoop(disp)
	return c, nil
}

func (c *cell) acceptLoop(disp *rpc.Server) {
	defer c.accept.Done()
	for {
		conn, err := c.l.Accept()
		if err != nil {
			return
		}
		c.accept.Add(1)
		go func(nc net.Conn) {
			defer c.accept.Done()
			var stream io.ReadWriteCloser = nc
			if c.tr != nil {
				stream = &tracedNet{inner: nc, tr: c.tr}
			}
			peer, err := rpc.AcceptPeer(stream, c.db.LookupKey, disp)
			if err != nil {
				nc.Close()
				return
			}
			peer.SetMetrics(c.metrics)
			var key rpc.Backchannel = peer
			if c.ts != nil {
				key = c.ts.addBack(peer)
			}
			c.mu.Lock()
			dead := c.closed
			c.peers = append(c.peers, peer)
			c.mu.Unlock()
			c.ready <- struct{}{}
			if dead {
				peer.Close()
			}
			<-peer.Done()
			c.srv.Locks().ReleaseAllFor(peer.User())
			c.srv.Callbacks().Drop(key)
			if c.ts != nil {
				c.ts.dropBack(peer)
			}
		}(conn)
	}
}

func (c *cell) clientOf(user string) *client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byUser[user]
}

// addClient connects one workstation as user, with a Venus cache of
// cacheBytes (0 = Venus's default, 20 MiB).
func (c *cell) addClient(user string, cacheBytes int64) (*client, error) {
	cl := &client{user: user, local: unixfs.New(nil)}
	c.mu.Lock()
	c.byUser[user] = cl
	c.mu.Unlock()
	cbServer := rpc.NewServer()
	nc, err := net.Dial("tcp", c.l.Addr().String())
	if err != nil {
		return nil, err
	}
	var stream io.ReadWriteCloser = nc
	if c.tr != nil {
		stream = &tracedNet{inner: nc, tr: c.tr}
	}
	cl.peer, err = rpc.DialPeer(stream, user, secure.DeriveKey(user, password), cbServer)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("dial as %s: %w", user, err)
	}
	<-c.ready
	var conn venus.Conn = cl.peer
	if c.tr != nil {
		conn = &tracedConn{inner: cl.peer, cli: cl, tr: c.tr}
	}
	cl.v = venus.New(venus.Config{
		Mode:       vice.Revised,
		Machine:    "ws-" + user,
		Local:      cl.local,
		MaxBytes:   cacheBytes,
		HomeServer: serverName,
		Connect: func(_ *sim.Proc, server string) (venus.Conn, error) {
			if server != serverName {
				return nil, fmt.Errorf("unknown server %q (single-server cell)", server)
			}
			return conn, nil
		},
	})
	handler := rpc.HandlerFunc(cl.v.HandleCallbackBreak)
	if c.tr != nil {
		handler = tracedBreak(c.tr, handler)
	}
	cbServer.Handle(rpc.Op(proto.OpCallbackBreak), handler)
	cl.v.Login(user)
	cl.fs = virtue.New(cl.local, cl.v)
	c.mu.Lock()
	c.clients = append(c.clients, cl)
	c.mu.Unlock()
	return cl, nil
}

// addUser has the operator create user and a volume of their own mounted at
// /vice/usr/<user>, as the client shell's adduser command does.
func (c *cell) addUser(op *client, user string) error {
	call := func(o uint16, body []byte) error {
		resp, err := op.peer.Call(nil, rpc.Request{Op: rpc.Op(o), Body: body})
		if err != nil {
			return err
		}
		if !resp.OK() {
			return proto.CodeToErr(resp.Code, string(resp.Body))
		}
		return nil
	}
	if err := call(proto.OpProtMutate, proto.Marshal(prot.Mutation{
		Kind: prot.MutAddUser, Name: user, Key: secure.DeriveKey(user, password),
	})); err != nil {
		return fmt.Errorf("add user %s: %w", user, err)
	}
	if err := op.fs.Mkdir(nil, "/vice/usr", 0o755); err != nil && !strings.Contains(err.Error(), "exists") {
		return err
	}
	if err := call(proto.OpVolCreate, proto.Marshal(proto.VolCreateArgs{
		Name: "user." + user, Path: "/usr/" + user, Owner: user,
	})); err != nil {
		return fmt.Errorf("create volume for %s: %w", user, err)
	}
	return nil
}

// close stops serving and releases the store without a checkpoint: what is
// on disk afterwards is what a kill would leave, plus whatever unsynced
// bytes the OS cache still holds (crashCopy discards those).
func (c *cell) close() error {
	c.mu.Lock()
	c.closed = true
	clients, peers := c.clients, c.peers
	c.mu.Unlock()
	for _, cl := range clients {
		cl.peer.Close()
	}
	err := c.l.Close()
	for _, p := range peers {
		p.Close()
	}
	c.accept.Wait()
	if cerr := c.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// crashCopy copies the data directory to dst as a crash at this instant
// would leave it: every file cut back to the prefix an fsync covered.
func (c *cell) crashCopy(dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	synced := c.disk.syncedSizes()
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		keep, tracked := synced[e.Name()]
		if !tracked {
			continue // temp files of an interrupted atomic write
		}
		if err := copyPrefix(filepath.Join(c.dir, e.Name()), filepath.Join(dst, e.Name()), keep); err != nil {
			return err
		}
	}
	return nil
}

func copyPrefix(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(out, in, n); err != nil && !errors.Is(err, io.EOF) {
		out.Close()
		return err
	}
	return out.Close()
}
