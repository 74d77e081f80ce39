package vice

// Standing a server up and serving a connection: the steps every cell takes,
// simulated or real, written once. The simulator (itcfs.NewCell) uses
// BootstrapDB and BootstrapRoot round its own replicated databases and serves
// through rpc.Endpoint; the daemon (cmd/itcfsd) and every test that wants a
// real server use Boot and Serve, which runs ServeConn per connection.

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/store"
	"itcfs/internal/trace"
	"itcfs/internal/volume"
)

// operator is the bootstrap operations account.
const operator = "operator"

// BootstrapDB gives db its operations staff: the operator account, keyed by
// password, and AdminGroup, owned by the operator and containing it. The
// simulator's database versions and snapshot bytes count these mutations in
// this order.
func BootstrapDB(db *prot.DB, password string) error {
	for _, m := range []prot.Mutation{
		{Kind: prot.MutAddUser, Name: operator, Key: secure.DeriveKey(operator, password)},
		{Kind: prot.MutAddGroup, Name: AdminGroup, Owner: operator},
		{Kind: prot.MutAddMember, Name: AdminGroup, Member: operator},
	} {
		if err := db.Apply(m); err != nil {
			return fmt.Errorf("vice: bootstrap: %w", err)
		}
	}
	return nil
}

// BootstrapRoot creates the root volume on s — volume 1, which anyone may
// look up and read and the operations staff administer — and returns its
// location row, for the caller to install in every replica of the location
// database.
func (s *Server) BootstrapRoot() (proto.LocEntry, error) {
	acl := prot.NewACL()
	acl.Grant(prot.AnyUser, prot.RightLookup|prot.RightRead)
	acl.Grant(AdminGroup, prot.RightsAll)
	if err := s.AddVolume(volume.New(1, "root", acl, 0, operator, s.cfg.Clock)); err != nil {
		return proto.LocEntry{}, fmt.Errorf("vice: bootstrap root volume: %w", err)
	}
	return proto.LocEntry{Prefix: "/", Volume: 1, Custodian: s.cfg.Name}, nil
}

// Boot brings up the server of a one-server cell: the operations staff in
// cfg.DB, the server, whatever cfg.Store kept from an earlier life (the
// report is nil without a store) and, on first boot, the root volume. A nil
// cfg.AllocVolID is filled in — such a cell has nobody to agree volume IDs
// with — and resumes past every ID recovered.
func Boot(cfg Config, operatorPassword string) (*Server, *store.Report, error) {
	if cfg.DB == nil {
		cfg.DB = prot.NewDB()
	}
	if err := BootstrapDB(cfg.DB, operatorPassword); err != nil {
		return nil, nil, err
	}
	var lastVol atomic.Uint32
	lastVol.Store(1) // the root volume
	if cfg.AllocVolID == nil {
		cfg.AllocVolID = func() uint32 { return lastVol.Add(1) }
	}
	s := New(cfg)
	rep, err := s.RecoverStore()
	if err != nil {
		return nil, rep, fmt.Errorf("vice: recover store: %w", err)
	}
	// Volumes still held here, and every ID the location database references:
	// a volume moved to a peer before the restart is no longer local, but
	// re-issuing its ID would collide in the location database.
	for _, id := range s.VolumeIDs() {
		lastVol.Store(max(id, lastVol.Load()))
	}
	for _, e := range s.cfg.Loc.Entries() {
		lastVol.Store(max(e.Volume, lastVol.Load()))
	}
	if _, ok := s.Volume(1); !ok {
		le, err := s.BootstrapRoot()
		if err == nil {
			err = s.InstallLoc([]proto.LocEntry{le}, nil)
		}
		if err != nil {
			return nil, rep, err
		}
	}
	return s, rep, nil
}

// ServeConn serves one client connection for its whole life: the
// authentication handshake (timed into rpc.accept.latency), the client's
// calls, and — once the connection has ended — the release of what the
// client held only while connected, its advisory locks and its callback
// promises. It returns the authenticated user, or the error that refused the
// handshake, after which c is closed. tracer, which may be nil, records a
// span per served call; it is the server's one tracer, the same on every
// connection.
//
// Simulated connections do not come through here: rpc.Endpoint serves them,
// and a simulated connection that dies leaves its locks and promises to the
// next Crash, which the simulator's goldens pin.
func (s *Server) ServeConn(c io.ReadWriteCloser, tracer *trace.Tracer) (user string, err error) {
	// Named before the handshake: the peer's read loop starts inside
	// AcceptPeer, and its first call is observed like the rest.
	s.disp.Observe(s.cfg.Name, tracer, s.cfg.Metrics)
	start := time.Now() //itcvet:allow wallclock -- real handshake cost, outside the simulator
	peer, err := rpc.AcceptPeer(c, s.cfg.DB.LookupKey, s.disp)
	if err != nil {
		c.Close()
		return "", err
	}
	s.cfg.Metrics.Histogram(trace.MetricRPCAcceptLatency).Observe(time.Since(start)) //itcvet:allow wallclock -- real handshake cost, outside the simulator
	<-peer.Done()
	s.locks.ReleaseAllFor(peer.User())
	s.callbacks.Drop(peer)
	return peer.User(), nil
}

// Serve accepts connections on l until it is closed, serving each through
// ServeConn on a goroutine of its own, and returns Accept's error. ended,
// which may be nil, is told each connection's remote address and what
// ServeConn returned for it. Connections still open when Serve returns are
// served to their end.
func (s *Server) Serve(l net.Listener, tracer *trace.Tracer, ended func(addr net.Addr, user string, err error)) error {
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			user, err := s.ServeConn(c, tracer)
			if ended != nil {
				ended(c.RemoteAddr(), user, err)
			}
		}()
	}
}
