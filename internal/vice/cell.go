package vice

// Standing a cell up and serving a connection: the steps every cell takes,
// simulated or real, written once. BootCell boots the servers of a cell —
// their replicated databases, their stores, the volume-ID counter they share
// and, on first boot, the root volume; the simulator (itcfs.NewCell) calls it
// and serves through rpc.Endpoint, and the daemon (cmd/itcfsd) and every test
// that wants a real server call Boot, a BootCell of one, and Serve, which runs
// ServeConn per connection. Peers are wired by the caller: each transport has
// its own.

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

// BootCell brings up the servers of a cell, one per Config, and returns them
// with what each one's store kept from an earlier life (a nil report for a
// server without a store). Every server holds a replica of base — nil is an
// empty database — after the operations staff are added to it: the operator
// account, keyed by operatorPassword, then AdminGroup, owned by the operator
// and containing it; the simulator's database versions and snapshot bytes
// count these mutations in this order. A Config's DB is replaced by its
// replica. The first server is the protection authority. A nil AllocVolID is
// filled in with one counter the cell's servers share, which resumes past
// every volume a store kept and every ID a location database names. When
// nothing was recovered anywhere, the first server creates the root volume —
// volume 1, which anyone may look up and read and the staff administer — and
// every server without a "/" row journals one.
func BootCell(cfgs []Config, base *prot.DB, operatorPassword string) ([]*Server, []*store.Report, error) {
	reps := make([]*store.Report, len(cfgs))
	if base == nil {
		base = prot.NewDB()
	}
	for _, m := range []prot.Mutation{
		{Kind: prot.MutAddUser, Name: operator, Key: secure.DeriveKey(operator, operatorPassword)},
		{Kind: prot.MutAddGroup, Name: AdminGroup, Owner: operator},
		{Kind: prot.MutAddMember, Name: AdminGroup, Member: operator},
	} {
		if err := base.Apply(m); err != nil {
			return nil, reps, fmt.Errorf("vice: bootstrap: %w", err)
		}
	}
	var lastVol atomic.Uint32
	alloc := func() uint32 { return lastVol.Add(1) }
	srvs := make([]*Server, len(cfgs))
	for i, cfg := range cfgs {
		cfg.DB = prot.NewDB()
		if err := cfg.DB.LoadSnapshot(base.Snapshot()); err != nil {
			return nil, reps, fmt.Errorf("vice: bootstrap %s: %w", cfg.Name, err)
		}
		cfg.ProtAuthority = i == 0
		if cfg.AllocVolID == nil {
			cfg.AllocVolID = alloc
		}
		srvs[i] = New(cfg)
		rep, err := srvs[i].RecoverStore()
		reps[i] = rep
		if err != nil {
			return nil, reps, fmt.Errorf("vice: recover store of %s: %w", cfg.Name, err)
		}
	}
	// Volumes still held, and every ID a location database references: a
	// volume moved away before the restart is no longer held anywhere it was,
	// but re-issuing its ID would collide in the location database.
	var last uint32
	for _, s := range srvs {
		for _, id := range s.VolumeIDs() {
			last = max(last, id)
		}
		for _, e := range s.cfg.Loc.Entries() {
			last = max(last, e.Volume)
		}
	}
	if last == 0 {
		last = 1
		acl := prot.NewACL()
		acl.Grant(prot.AnyUser, prot.RightLookup|prot.RightRead)
		acl.Grant(AdminGroup, prot.RightsAll)
		if err := srvs[0].AddVolume(volume.New(1, "root", acl, 0, operator, srvs[0].cfg.Clock)); err != nil {
			return nil, reps, fmt.Errorf("vice: bootstrap root volume: %w", err)
		}
	}
	// Every server lacks the "/" row on first boot, and one whose first boot
	// crashed between journalling the root volume and the row lacks it after.
	row := []proto.LocEntry{{Prefix: "/", Volume: 1, Custodian: srvs[0].cfg.Name}}
	for _, s := range srvs {
		if _, ok := s.cfg.Loc.Resolve("/"); ok {
			continue
		}
		if err := s.InstallLoc(row, nil); err != nil {
			return nil, reps, fmt.Errorf("vice: bootstrap %s: %w", s.cfg.Name, err)
		}
	}
	lastVol.Store(last)
	return srvs, reps, nil
}

// Boot brings up the server of a one-server cell, a BootCell of one whose
// base database is cfg.DB.
func Boot(cfg Config, operatorPassword string) (*Server, *store.Report, error) {
	srvs, reps, err := BootCell([]Config{cfg}, cfg.DB, operatorPassword)
	if err != nil {
		return nil, reps[0], err
	}
	return srvs[0], reps[0], nil
}

// ServeConn serves one client connection for its whole life: the
// authentication handshake (timed into rpc.accept.latency), the client's
// calls, and — once the connection has ended — the release of what the
// client held only while connected, its advisory locks and its callback
// promises. It returns the authenticated user, or the error that refused the
// handshake, after which c is closed. The connection reports to the
// instruments New named on the Dispatcher, from its first call.
//
// Simulated connections do not come through here: rpc.Endpoint serves them,
// and a simulated connection that dies leaves its locks and promises to the
// next Crash, which the simulator's goldens pin.
func (s *Server) ServeConn(c io.ReadWriteCloser) (user string, err error) {
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
func (s *Server) Serve(l net.Listener, ended func(addr net.Addr, user string, err error)) error {
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			user, err := s.ServeConn(c)
			if ended != nil {
				ended(c.RemoteAddr(), user, err)
			}
		}()
	}
}
