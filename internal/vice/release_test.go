package vice

// Release-controller behavior at the server level: idempotent installs,
// resuming an interrupted release (both in-memory and across a real WAL
// crash/recover cycle), and the replace-mount race against an in-flight
// fetch.

import (
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
	"itcfs/internal/volume"
)

// dropInstalls wraps a peer connection, failing OpVolInstall calls while
// tripped — a replica that is up (location broadcasts reach it) but whose
// bulk-transfer path is down, the classic mid-release failure.
type dropInstalls struct {
	inner   rpc.Conn
	tripped *bool
}

func (d dropInstalls) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	if *d.tripped && req.Op == rpc.Op(proto.OpVolInstall) {
		return rpc.Response{}, rpc.ErrUnreachable
	}
	return d.inner.Call(p, req)
}

// replicaHasListing fails the test unless srv serves the clone volume's
// root directory listing with exactly the given names.
func replicaHasListing(t *testing.T, srv *Server, vol uint32, names ...string) {
	t.Helper()
	resp := srv.Dispatcher().Dispatch(rpc.Ctx{User: "satya"}, rpc.Request{
		Op: rpc.Op(proto.OpFetch),
		Body: proto.Marshal(proto.FetchArgs{
			Ref: proto.Ref{FID: proto.FID{Volume: vol, Vnode: volume.RootVnode, Uniq: 1}},
		}),
	})
	if !resp.OK() {
		t.Fatalf("fetch from replica: code %d: %s", resp.Code, resp.Body)
	}
	entries, err := proto.DecodeDirEntries(resp.Bulk)
	if err != nil || len(entries) != len(names) {
		t.Fatalf("replica listing: %+v %v, want %v", entries, err, names)
	}
	for i, want := range names {
		if entries[i].Name != want {
			t.Fatalf("replica listing[%d] = %q, want %q", i, entries[i].Name, want)
		}
	}
}

// TestVolInstallIdempotent: re-delivering a read-only release image —
// exactly what a resumed release does for replicas that confirmed before a
// crash — is a no-op, not an error.
func TestVolInstallIdempotent(t *testing.T) {
	c := newCell(t, Prototype, 2)
	vid := c.mkVolume(t, "sys.bin", "/bin", "operator", 0)
	c.store(t, "operator", "/bin/ls", []byte("ls-bin"))
	resp := mustOK(t, c.call("operator", 0, proto.OpVolClone,
		proto.Marshal(proto.VolCloneArgs{Volume: vid, Path: "/bin-ro", Replicas: []string{"server1"}}), nil))
	vs, err := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
	if err != nil {
		t.Fatal(err)
	}
	clone, ok := c.servers[0].Volume(vs.Volume)
	if !ok {
		t.Fatal("clone missing on custodian")
	}
	// Deliver the same image to server1 twice more, as server-to-server
	// traffic. Both must succeed and the replica must keep serving.
	for i := 0; i < 2; i++ {
		resp := c.servers[1].Dispatcher().Dispatch(rpc.Ctx{User: ServerUser}, rpc.Request{
			Op:   rpc.Op(proto.OpVolInstall),
			Body: proto.Marshal(proto.VolInstallArgs{Volume: vs.Volume, Name: clone.Name(), ReadOnly: true}),
			Bulk: clone.Serialize(),
		})
		if !resp.OK() {
			t.Fatalf("re-install %d: code %d: %s", i, resp.Code, resp.Body)
		}
	}
	replicaHasListing(t, c.servers[1], vs.Volume, "ls")
}

// TestReleaseResumesAfterFailedPush: a release whose replica push fails
// leaves a durable location entry and a pending replica; once the replica
// is reachable again, ResumeReleases finishes exactly the missing install.
func TestReleaseResumesAfterFailedPush(t *testing.T) {
	c := newCell(t, Prototype, 2)
	vid := c.mkVolume(t, "sys.bin", "/bin", "operator", 0)
	c.store(t, "operator", "/bin/ls", []byte("ls-bin"))

	tripped := true
	c.servers[0].AddPeer("server1", dropInstalls{inner: directCaller{c.servers[1]}, tripped: &tripped})
	resp := c.call("operator", 0, proto.OpVolClone,
		proto.Marshal(proto.VolCloneArgs{Volume: vid, Path: "/bin-ro", Replicas: []string{"server1"}}), nil)
	if resp.OK() {
		t.Fatal("clone succeeded with the replica's install path down")
	}

	// The location entry (and its replica set) was installed before the
	// push, so the in-flight release is discoverable.
	le, ok := c.servers[0].Loc().Resolve("/bin-ro")
	if !ok || len(le.Replicas) != 1 || le.Replicas[0] != "server1" {
		t.Fatalf("loc entry = %+v, %v", le, ok)
	}
	if p := c.servers[0].Releases(); len(p) != 1 || len(p[0].Pending) != 1 {
		t.Fatalf("releases = %+v", p)
	}
	if _, ok := c.servers[1].Volume(le.Volume); ok {
		t.Fatal("replica has the volume despite the failed push")
	}

	tripped = false
	resumed, err := c.servers[0].ResumeReleases(nil)
	if err != nil {
		t.Fatalf("ResumeReleases: %v", err)
	}
	if len(resumed) != 1 || resumed[0] != le.Volume {
		t.Fatalf("resumed = %v, want [%d]", resumed, le.Volume)
	}
	if p := c.servers[0].Releases(); len(p) != 1 || len(p[0].Pending) != 0 {
		t.Fatalf("releases after resume = %+v", p)
	}
	replicaHasListing(t, c.servers[1], le.Volume, "ls")

	// Resuming again re-pushes to the full set; the idempotent receiver
	// makes that a no-op rather than a failure.
	if _, err := c.servers[0].ResumeReleases(nil); err != nil {
		t.Fatalf("second ResumeReleases: %v", err)
	}
}

// TestReleaseResumesAfterCrashRecovery is the end-to-end durability story:
// the custodian journals the release's location entry, crashes before the
// replica receives the image, and a recovered server finishes the release
// from its WAL-recovered state alone.
func TestReleaseResumesAfterCrashRecovery(t *testing.T) {
	db := prot.NewDB()
	for _, m := range []prot.Mutation{
		{Kind: prot.MutAddUser, Name: "satya", Key: secure.DeriveKey("satya", "pw")},
		{Kind: prot.MutAddUser, Name: "operator", Key: secure.DeriveKey("operator", "pw")},
		{Kind: prot.MutAddGroup, Name: AdminGroup, Owner: "operator"},
		{Kind: prot.MutAddMember, Name: AdminGroup, Member: "operator"},
	} {
		if err := db.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	var clock int64
	clk := func() int64 { clock++; return clock }
	nextVol := uint32(1)
	alloc := func() uint32 { nextVol++; return nextVol }
	custodianCfg := func(st store.Store) Config {
		dbCopy := prot.NewDB()
		if err := dbCopy.LoadSnapshot(db.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return Config{
			Name: "server0", Mode: Prototype, DB: dbCopy, Loc: NewLocDB(),
			Clock: clk, ProtAuthority: true, AllocVolID: alloc, Store: st,
		}
	}

	fsys := store.NewMemFS()
	ws, err := walstore.Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	s0 := New(custodianCfg(ws))
	if _, err := s0.RecoverStore(); err != nil {
		t.Fatal(err)
	}
	replicaDB := prot.NewDB()
	if err := replicaDB.LoadSnapshot(db.Snapshot()); err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Name: "server1", Mode: Prototype, DB: replicaDB, Loc: NewLocDB(),
		Clock: clk, AllocVolID: alloc})
	tripped := true
	s0.AddPeer("server1", dropInstalls{inner: directCaller{s1}, tripped: &tripped})
	s1.AddPeer("server0", directCaller{s0})

	rootACL := prot.NewACL()
	rootACL.Grant(prot.AnyUser, prot.RightLookup|prot.RightRead)
	rootACL.Grant(AdminGroup, prot.RightsAll)
	if err := s0.AddVolume(volume.New(1, "root", rootACL, 0, "operator", clk)); err != nil {
		t.Fatal(err)
	}
	if err := s0.InstallLoc([]proto.LocEntry{{Prefix: "/", Volume: 1, Custodian: "server0"}}, nil); err != nil {
		t.Fatal(err)
	}
	dispatch := func(user string, op uint16, body, bulk []byte) rpc.Response {
		return s0.Dispatcher().Dispatch(rpc.Ctx{User: user},
			rpc.Request{Op: rpc.Op(op), Body: body, Bulk: bulk})
	}
	resp := dispatch("operator", proto.OpVolCreate,
		proto.Marshal(proto.VolCreateArgs{Name: "sys.bin", Path: "/bin", Owner: "operator"}), nil)
	if !resp.OK() {
		t.Fatalf("VolCreate: %s", resp.Body)
	}
	vs, _ := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
	if r := dispatch("operator", proto.OpCreate,
		proto.Marshal(proto.NameArgs{Dir: pathRef("/bin"), Name: "ls", Mode: 0o644}), nil); !r.OK() {
		t.Fatalf("Create: %s", r.Body)
	}
	if r := dispatch("operator", proto.OpStore,
		proto.Marshal(proto.StoreArgs{Ref: pathRef("/bin/ls")}), []byte("ls-bin")); !r.OK() {
		t.Fatalf("Store: %s", r.Body)
	}

	// The release fails mid-flight: location entry journalled, replica
	// never got the image. Then the custodian "crashes" (we abandon it).
	if r := dispatch("operator", proto.OpVolClone,
		proto.Marshal(proto.VolCloneArgs{Volume: vs.Volume, Path: "/bin-ro", Replicas: []string{"server1"}}), nil); r.OK() {
		t.Fatal("clone succeeded with the replica's install path down")
	}

	ws2, err := walstore.Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	s0b := New(custodianCfg(ws2))
	if _, err := s0b.RecoverStore(); err != nil {
		t.Fatal(err)
	}
	tripped = false
	s0b.AddPeer("server1", directCaller{s1})

	le, ok := s0b.Loc().Resolve("/bin-ro")
	if !ok {
		t.Fatal("recovered server lost the release's location entry")
	}
	resumed, err := s0b.ResumeReleases(nil)
	if err != nil {
		t.Fatalf("ResumeReleases: %v", err)
	}
	if len(resumed) != 1 || resumed[0] != le.Volume {
		t.Fatalf("resumed = %v, want [%d]", resumed, le.Volume)
	}
	replicaHasListing(t, s1, le.Volume, "ls")
}

// TestVolCloneReplaceMountDuringFetch pins the replace-mount guarantee: a
// client that resolved a file in the old release before a new release
// replaced the mount can still complete its fetch by FID — the old clone
// stays attached, merely unmounted — while path lookups serve the new one.
func TestVolCloneReplaceMountDuringFetch(t *testing.T) {
	c := newCell(t, Prototype, 1)
	vid := c.mkVolume(t, "sys.bin", "/bin", "operator", 0)
	c.store(t, "operator", "/bin/cc", []byte("cc-v1"))
	mustOK(t, c.call("operator", 0, proto.OpVolClone,
		proto.Marshal(proto.VolCloneArgs{Volume: vid, Path: "/bin-ro"}), nil))

	// The in-flight fetch: the client resolves the old release's file...
	_, st := c.fetch(t, "satya", "/bin-ro/cc")

	// ...a new release replaces the mount underneath it...
	c.store(t, "operator", "/bin/cc", []byte("cc-v2"))
	mustOK(t, c.call("operator", 0, proto.OpVolClone,
		proto.Marshal(proto.VolCloneArgs{Volume: vid, Path: "/bin-ro"}), nil))

	// ...and the fetch completes against the old clone's FID.
	resp := mustOK(t, c.call("satya", 0, proto.OpFetch,
		proto.Marshal(proto.FetchArgs{Ref: proto.Ref{FID: st.FID}}), nil))
	if string(resp.Bulk) != "cc-v1" {
		t.Fatalf("old-clone fetch = %q, want cc-v1", resp.Bulk)
	}
	// A fresh path lookup sees the new release.
	got, st2 := c.fetch(t, "satya", "/bin-ro/cc")
	if string(got) != "cc-v2" {
		t.Fatalf("new-release fetch = %q, want cc-v2", got)
	}
	if st2.FID.Volume == st.FID.Volume {
		t.Fatal("path lookup still resolves into the old clone volume")
	}
}
