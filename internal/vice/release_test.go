package vice

// Releases and moves at the server level: a release ships its clone to the
// replicas in the order given and stops at the first failure; its location
// entry is all a resume needs, in memory or across a real WAL crash/recover
// cycle; installs are idempotent; a move and a release ship a volume in the
// same request; and the replace-mount race against an in-flight fetch.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
	"itcfs/internal/volume"
)

// installTap stands between one server and its peers. It notes, in order,
// the peer each OpVolInstall goes to and the request, and fails the installs
// to a peer in down — a replica that is up (location broadcasts reach it)
// but whose bulk-transfer path is down, the classic mid-release failure.
type installTap struct {
	sent []string
	reqs []rpc.Request
	down map[string]bool
}

// newTap puts a tap between s and each of peers.
func newTap(s *Server, down map[string]bool, peers ...*Server) *installTap {
	tap := &installTap{down: down}
	for _, peer := range peers {
		s.AddPeer(peer.Name(), tappedConn{tap: tap, peer: peer.Name(), inner: directCaller{peer}})
	}
	return tap
}

type tappedConn struct {
	tap   *installTap
	peer  string
	inner rpc.Conn
}

func (c tappedConn) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	if req.Op == rpc.Op(proto.OpVolInstall) {
		c.tap.sent = append(c.tap.sent, c.peer)
		c.tap.reqs = append(c.tap.reqs, req)
		if c.tap.down[c.peer] {
			return rpc.Response{}, rpc.ErrUnreachable
		}
	}
	return c.inner.Call(p, req)
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
	entries, err := proto.Unmarshal(resp.Bulk, proto.DecodeDirEntries)
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
	cid := cloneOnto(t, c, vid, "server1")
	clone, ok := c.servers[0].Volume(cid)
	if !ok {
		t.Fatal("clone missing on custodian")
	}
	// Deliver the same image to server1 twice more, as server-to-server
	// traffic. Both must succeed and the replica must keep serving.
	for i := 0; i < 2; i++ {
		resp := c.servers[1].Dispatcher().Dispatch(rpc.Ctx{User: ServerUser}, c.servers[0].installRequest(clone))
		if !resp.OK() {
			t.Fatalf("re-install %d: code %d: %s", i, resp.Code, resp.Body)
		}
	}
	replicaHasListing(t, c.servers[1], cid, "ls")
}

// TestReleaseShipsToReplicasInOrder: a release installs its clone on each
// replica once, in the order the operator listed them.
func TestReleaseShipsToReplicasInOrder(t *testing.T) {
	c := newCell(t, Prototype, 4)
	vid := c.mkVolume(t, "sys.bin", "/bin", "operator", 0)
	c.store(t, "operator", "/bin/ls", []byte("ls-bin"))
	tap := newTap(c.servers[0], nil, c.servers[1:]...)
	order := []string{"server3", "server1", "server2"}
	cid := cloneOnto(t, c, vid, order...)
	if !reflect.DeepEqual(tap.sent, order) {
		t.Fatalf("installs went to %v, want %v", tap.sent, order)
	}
	for _, srv := range c.servers[1:] {
		replicaHasListing(t, srv, cid, "ls")
	}
}

// TestReleaseResumesAfterFailedPush: a release stops at the first replica
// whose install fails, leaving a durable location entry that names the
// whole replica set; once that replica is reachable again, ResumeReleases
// ships the clone to the whole set again, and the replicas that already hold
// it acknowledge without work.
func TestReleaseResumesAfterFailedPush(t *testing.T) {
	c := newCell(t, Prototype, 4)
	vid := c.mkVolume(t, "sys.bin", "/bin", "operator", 0)
	c.store(t, "operator", "/bin/ls", []byte("ls-bin"))

	tap := newTap(c.servers[0], map[string]bool{"server2": true}, c.servers[1:]...)
	resp := c.call("operator", 0, proto.OpVolClone, proto.Marshal(proto.VolCloneArgs{
		Volume: vid, Path: "/bin-ro", Replicas: []string{"server1", "server2", "server3"}}), nil)
	if resp.OK() || !strings.Contains(string(resp.Body), "server2") {
		t.Fatalf("clone with server2's install path down: code %d: %s", resp.Code, resp.Body)
	}
	if want := []string{"server1", "server2"}; !reflect.DeepEqual(tap.sent, want) {
		t.Fatalf("installs went to %v, want %v", tap.sent, want)
	}

	// The location entry (and its replica set) was installed before the
	// first install, so the release is discoverable.
	le, ok := c.servers[0].Loc().Resolve("/bin-ro")
	if !ok || !reflect.DeepEqual(le.Replicas, []string{"server1", "server2", "server3"}) {
		t.Fatalf("loc entry = %+v, %v", le, ok)
	}
	for i, want := range []bool{true, false, false} {
		if _, ok := c.servers[i+1].Volume(le.Volume); ok != want {
			t.Fatalf("server%d holds the volume: %v, want %v", i+1, ok, want)
		}
	}

	delete(tap.down, "server2")
	tap.sent = nil
	resumed, err := c.servers[0].ResumeReleases(nil)
	if err != nil {
		t.Fatalf("ResumeReleases: %v", err)
	}
	if len(resumed) != 1 || resumed[0] != le.Volume {
		t.Fatalf("resumed = %v, want [%d]", resumed, le.Volume)
	}
	if want := []string{"server1", "server2", "server3"}; !reflect.DeepEqual(tap.sent, want) {
		t.Fatalf("resume installed on %v, want %v", tap.sent, want)
	}
	for _, srv := range c.servers[1:] {
		replicaHasListing(t, srv, le.Volume, "ls")
	}

	// Resuming again ships to the full set once more; the idempotent
	// receiver makes that a no-op rather than a failure.
	if _, err := c.servers[0].ResumeReleases(nil); err != nil {
		t.Fatalf("second ResumeReleases: %v", err)
	}
}

// TestResumeReleasesShipsOnlyThisServersReleases: a location entry is a
// release of this server only when this server is its custodian, it names
// replicas, and the volume here is read-only.
func TestResumeReleasesShipsOnlyThisServersReleases(t *testing.T) {
	c := newCell(t, Prototype, 3)
	vid := c.mkVolume(t, "sys.bin", "/bin", "operator", 0)
	c.store(t, "operator", "/bin/ls", []byte("ls-bin"))
	cid := cloneOnto(t, c, vid, "server1")
	tap := newTap(c.servers[0], nil, c.servers[1:]...)
	if err := c.servers[0].InstallLoc([]proto.LocEntry{
		{Prefix: "/bin", Volume: vid, Custodian: "server0", Replicas: []string{"server2"}},      // read-write here
		{Prefix: "/elsewhere", Volume: 70, Custodian: "server1", Replicas: []string{"server2"}}, // server1's release
		{Prefix: "/missing", Volume: 71, Custodian: "server0", Replicas: []string{"server2"}},   // no such volume here
		{Prefix: "/unreplicated", Volume: cid, Custodian: "server0"},                            // no replicas
	}, nil); err != nil {
		t.Fatal(err)
	}
	resumed, err := c.servers[0].ResumeReleases(nil)
	if err != nil {
		t.Fatalf("ResumeReleases: %v", err)
	}
	if !reflect.DeepEqual(resumed, []uint32{cid}) || !reflect.DeepEqual(tap.sent, []string{"server1"}) {
		t.Fatalf("resumed %v onto %v, want [%d] onto [server1]", resumed, tap.sent, cid)
	}
}

// TestInstallRequestCarriesTheVolume: a move and a release ship a volume in
// one request — its ID, name and read-only flag, and an image that decodes
// to the volume's contents.
func TestInstallRequestCarriesTheVolume(t *testing.T) {
	c := newCell(t, Prototype, 3)
	uid := c.mkVolume(t, "u", "/u", "satya", 0)
	c.store(t, "satya", "/u/f", []byte("user data"))
	bid := c.mkVolume(t, "sys.bin", "/bin", "operator", 0)
	c.store(t, "operator", "/bin/ls", []byte("ls-bin"))
	tap := newTap(c.servers[0], nil, c.servers[1:]...)

	mustOK(t, c.call("operator", 0, proto.OpVolMove,
		proto.Marshal(proto.VolMoveArgs{Volume: uid, Target: "server1"}), nil))
	cid := cloneOnto(t, c, bid, "server2")

	want := []struct {
		args proto.VolInstallArgs
		file string
		data string
	}{
		{proto.VolInstallArgs{Volume: uid, Name: "u"}, "f", "user data"},
		{proto.VolInstallArgs{Volume: cid, Name: "sys.bin.readonly", ReadOnly: true}, "ls", "ls-bin"},
	}
	if !reflect.DeepEqual(tap.sent, []string{"server1", "server2"}) {
		t.Fatalf("installs went to %v", tap.sent)
	}
	for i, w := range want {
		req := tap.reqs[i]
		args, err := proto.Unmarshal(req.Body, proto.DecodeVolInstallArgs)
		if err != nil || args != w.args {
			t.Fatalf("install %d args = %+v, %v; want %+v", i, args, err, w.args)
		}
		v, err := volume.Deserialize(req.Bulk, nil)
		if err != nil {
			t.Fatalf("install %d image: %v", i, err)
		}
		de, err := v.Lookup(v.Root(), w.file)
		if err != nil {
			t.Fatalf("install %d: %s: %v", i, w.file, err)
		}
		if data, _ := v.DataOf(de.FID.Vnode); v.ID() != w.args.Volume || v.ReadOnly() != w.args.ReadOnly || !bytes.Equal(data, []byte(w.data)) {
			t.Fatalf("install %d image holds volume %d (read-only %v) with %s = %q", i, v.ID(), v.ReadOnly(), w.file, data)
		}
	}
}

// TestVolMoveFailedInstallRestoresService: a move whose install fails leaves
// the volume where it was, online, and the location database unchanged.
func TestVolMoveFailedInstallRestoresService(t *testing.T) {
	c := newCell(t, Prototype, 2)
	vid := c.mkVolume(t, "u", "/u", "satya", 0)
	c.store(t, "satya", "/u/f", []byte("data"))
	newTap(c.servers[0], map[string]bool{"server1": true}, c.servers[1])
	if resp := c.call("operator", 0, proto.OpVolMove,
		proto.Marshal(proto.VolMoveArgs{Volume: vid, Target: "server1"}), nil); resp.OK() {
		t.Fatal("move succeeded with the target's install path down")
	}
	v, ok := c.servers[0].Volume(vid)
	if !ok || !v.Online() {
		t.Fatalf("source volume present %v, online %v", ok, ok && v.Online())
	}
	if _, ok := c.servers[1].Volume(vid); ok {
		t.Fatal("target holds the volume")
	}
	for _, s := range c.servers {
		if le, ok := s.Loc().Resolve("/u/f"); !ok || le.Custodian != "server0" {
			t.Fatalf("%s loc = %+v", s.Name(), le)
		}
	}
	if got, _ := c.fetch(t, "satya", "/u/f"); string(got) != "data" {
		t.Fatalf("after the failed move: %q", got)
	}
}

// TestReleaseResumesAfterCrashRecovery is the end-to-end durability story:
// the custodian journals the release's location entry, crashes before the
// replica receives the image, and a recovered server finishes the release
// from its WAL-recovered state alone.
func TestReleaseResumesAfterCrashRecovery(t *testing.T) {
	var clock int64
	clk := func() int64 { clock++; return clock }
	custodianCfg := func(st store.Store) Config {
		return Config{Name: "server0", Mode: Prototype, Clock: clk, Store: st}
	}

	fsys := store.NewMemFS()
	ws, err := walstore.Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	srvs, _, err := BootCell([]Config{custodianCfg(ws), {Name: "server1", Mode: Prototype, Clock: clk}}, usersDB(t, "satya"), "pw")
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := srvs[0], srvs[1]
	newTap(s0, map[string]bool{"server1": true}, s1)
	s1.AddPeer("server0", directCaller{s0})

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
	srvs, _, err = BootCell([]Config{custodianCfg(ws2)}, usersDB(t, "satya"), "pw")
	if err != nil {
		t.Fatal(err)
	}
	s0b := srvs[0]
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
