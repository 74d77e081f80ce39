package vice

import (
	"errors"
	"fmt"
	"path"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/volume"
)

// directCaller wires servers to each other in-process: Call dispatches
// straight into the peer's handler set, as an authenticated peer server.
type directCaller struct{ srv *Server }

func (c directCaller) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	return c.srv.Dispatcher().Dispatch(rpc.Ctx{User: ServerUser, Proc: p}, req), nil
}

// cell is a small test cell, booted by BootCell with every peer wired
// in-process.
type cell struct {
	servers []*Server
}

func newCell(t testing.TB, mode Mode, n int) *cell {
	t.Helper()
	var clock int64
	clk := func() int64 { clock++; return clock }
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = Config{Name: fmt.Sprintf("server%d", i), Mode: mode, Clock: clk}
	}
	return bootCell(t, cfgs)
}

// bootCell boots a server per Config, with the users satya, howard and
// mallory, and wires each to every other in-process.
func bootCell(t testing.TB, cfgs []Config) *cell {
	t.Helper()
	srvs, _, err := BootCell(cfgs, usersDB(t, "satya", "howard", "mallory"), "pw")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range srvs {
		for _, other := range srvs {
			if s != other {
				s.AddPeer(other.Name(), directCaller{other})
			}
		}
	}
	return &cell{servers: srvs}
}

// usersDB is a protection database holding users, each with password "pw".
func usersDB(t testing.TB, users ...string) *prot.DB {
	t.Helper()
	db := prot.NewDB()
	for _, u := range users {
		if err := db.Apply(prot.Mutation{Kind: prot.MutAddUser, Name: u, Key: secure.DeriveKey(u, "pw")}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func (c *cell) call(user string, srv int, op uint16, body, bulk []byte) rpc.Response {
	return c.servers[srv].Dispatcher().Dispatch(
		rpc.Ctx{User: user},
		rpc.Request{Op: rpc.Op(op), Body: body, Bulk: bulk},
	)
}

// mustOK fails the test unless the response succeeded.
func mustOK(t testing.TB, resp rpc.Response) rpc.Response {
	t.Helper()
	if !resp.OK() {
		t.Fatalf("call failed: code %d: %s", resp.Code, resp.Body)
	}
	return resp
}

func wantCode(t *testing.T, resp rpc.Response, code uint16) {
	t.Helper()
	if resp.Code != code {
		t.Fatalf("code = %d (%s), want %d", resp.Code, resp.Body, code)
	}
}

// mkdirAll creates dir and every ancestor of it in the shared space as
// operator.
func (c *cell) mkdirAll(t testing.TB, dir string) {
	t.Helper()
	if dir == "/" {
		return
	}
	c.mkdirAll(t, path.Dir(dir))
	resp := c.call("operator", 0, proto.OpMakeDir,
		proto.Marshal(proto.NameArgs{Dir: pathRef(path.Dir(dir)), Name: path.Base(dir), Mode: 0o755}), nil)
	if !resp.OK() && resp.Code != proto.CodeExist {
		t.Fatalf("MakeDir %s: code %d: %s", dir, resp.Code, resp.Body)
	}
}

// mkVolume creates a user volume mounted at path via the admin op,
// creating missing ancestor directories first.
func (c *cell) mkVolume(t testing.TB, name, at, owner string, quota int64) uint32 {
	t.Helper()
	c.mkdirAll(t, path.Dir(at))
	resp := c.call("operator", 0, proto.OpVolCreate,
		proto.Marshal(proto.VolCreateArgs{Name: name, Path: at, Quota: quota, Owner: owner}), nil)
	if !resp.OK() {
		t.Fatalf("VolCreate: code %d: %s", resp.Code, resp.Body)
	}
	vs, err := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
	if err != nil {
		t.Fatal(err)
	}
	return vs.Volume
}

func pathRef(p string) proto.Ref { return proto.Ref{Path: p} }

func (c *cell) store(t testing.TB, user, file string, data []byte) proto.Status {
	t.Helper()
	// Create if missing, then store.
	resp := c.call(user, 0, proto.OpCreate,
		proto.Marshal(proto.NameArgs{Dir: pathRef(path.Dir(file)), Name: path.Base(file), Mode: 0o644}), nil)
	if !resp.OK() && resp.Code != proto.CodeExist {
		t.Fatalf("Create %s: code %d: %s", file, resp.Code, resp.Body)
	}
	resp = mustOK(t, c.call(user, 0, proto.OpStore,
		proto.Marshal(proto.StoreArgs{Ref: pathRef(file)}), data))
	st, err := proto.Unmarshal(resp.Body, proto.DecodeStatus)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func (c *cell) fetch(t *testing.T, user, path string) ([]byte, proto.Status) {
	t.Helper()
	resp := mustOK(t, c.call(user, 0, proto.OpFetch,
		proto.Marshal(proto.FetchArgs{Ref: pathRef(path)}), nil))
	st, err := proto.Unmarshal(resp.Body, proto.DecodeStatus)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Bulk, st
}

func TestStoreAndFetchByPath(t *testing.T) {
	c := newCell(t, Prototype, 1)
	c.mkVolume(t, "user.satya", "/usr/satya", "satya", 0)
	want := []byte("the ITC distributed file system")
	st := c.store(t, "satya", "/usr/satya/paper.mss", want)
	if st.Size != int64(len(want)) {
		t.Fatalf("status = %+v", st)
	}
	got, st2 := c.fetch(t, "satya", "/usr/satya/paper.mss")
	if string(got) != string(want) {
		t.Fatalf("fetched %q", got)
	}
	if st2.Version != st.Version {
		t.Fatalf("version changed on fetch")
	}
}

func TestMkVolumeMountsInParent(t *testing.T) {
	c := newCell(t, Prototype, 1)
	vid := c.mkVolume(t, "user.satya", "/usr/satya", "satya", 0)
	if vid == 1 {
		t.Fatal("volume id not allocated")
	}
	// The mount point appears as a directory entry of /usr whose FID lives
	// in the new volume.
	data, _ := c.fetch(t, "satya", "/usr")
	entries, err := proto.Unmarshal(data, proto.DecodeDirEntries)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "satya" || entries[0].FID.Volume != vid {
		t.Fatalf("usr entries = %+v, want satya in volume %d", entries, vid)
	}
	if entries[0].Type != proto.TypeDir {
		t.Fatal("mount point not a directory entry")
	}
}

func TestFetchMissingFile(t *testing.T) {
	c := newCell(t, Prototype, 1)
	resp := c.call("satya", 0, proto.OpFetch, proto.Marshal(proto.FetchArgs{Ref: pathRef("/nope")}), nil)
	wantCode(t, resp, proto.CodeNoEnt)
}

func TestACLEnforcement(t *testing.T) {
	c := newCell(t, Prototype, 1)
	c.mkVolume(t, "user.satya", "/usr/satya", "satya", 0)
	c.store(t, "satya", "/usr/satya/private", []byte("secret"))

	// Default volume ACL gives AnyUser lookup+read, owner everything.
	if _, st := c.fetch(t, "mallory", "/usr/satya/private"); st.Size == 0 {
		t.Fatal("fetch by other user failed unexpectedly")
	}
	// mallory cannot store.
	resp := c.call("mallory", 0, proto.OpStore,
		proto.Marshal(proto.StoreArgs{Ref: pathRef("/usr/satya/private")}), []byte("tamper"))
	wantCode(t, resp, proto.CodeAccess)

	// satya tightens the ACL: remove AnyUser read.
	acl := prot.NewACL()
	acl.Grant("satya", prot.RightsAll)
	resp = mustOK(t, c.call("satya", 0, proto.OpSetACL,
		proto.Marshal(proto.ACLArgs{Dir: pathRef("/usr/satya"), ACL: proto.ACLEncode(acl)}), nil))
	resp = c.call("mallory", 0, proto.OpFetch,
		proto.Marshal(proto.FetchArgs{Ref: pathRef("/usr/satya/private")}), nil)
	wantCode(t, resp, proto.CodeAccess)
}

func TestNegativeRightsBlockDespiteGroup(t *testing.T) {
	c := newCell(t, Prototype, 1)
	c.mkVolume(t, "proj", "/proj", "satya", 0)
	db := c.servers[0].DB()
	if err := db.Apply(prot.Mutation{Kind: prot.MutAddGroup, Name: "team", Owner: "satya"}); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"satya", "howard", "mallory"} {
		if err := db.Apply(prot.Mutation{Kind: prot.MutAddMember, Name: "team", Member: u}); err != nil {
			t.Fatal(err)
		}
	}
	acl := prot.NewACL()
	acl.Grant("team", prot.RightsAll)
	acl.Deny("mallory", prot.RightWrite|prot.RightInsert|prot.RightDelete)
	mustOK(t, c.call("satya", 0, proto.OpSetACL,
		proto.Marshal(proto.ACLArgs{Dir: pathRef("/proj"), ACL: proto.ACLEncode(acl)}), nil))

	c.store(t, "howard", "/proj/shared", []byte("team data"))
	// mallory can still read (team grant), but not write (negative right).
	if got, _ := c.fetch(t, "mallory", "/proj/shared"); string(got) != "team data" {
		t.Fatalf("read failed: %q", got)
	}
	resp := c.call("mallory", 0, proto.OpStore,
		proto.Marshal(proto.StoreArgs{Ref: pathRef("/proj/shared")}), []byte("evil"))
	wantCode(t, resp, proto.CodeAccess)
}

func TestTestValidReportsStaleness(t *testing.T) {
	c := newCell(t, Prototype, 1)
	c.mkVolume(t, "u", "/u", "satya", 0)
	st := c.store(t, "satya", "/u/f", []byte("v1"))

	resp := mustOK(t, c.call("satya", 0, proto.OpTestValid,
		proto.Marshal(proto.TestValidArgs{Ref: pathRef("/u/f"), Version: st.Version}), nil))
	tv, _ := proto.Unmarshal(resp.Body, proto.DecodeTestValidReply)
	if !tv.Valid {
		t.Fatal("fresh copy reported invalid")
	}
	c.store(t, "satya", "/u/f", []byte("v2"))
	resp = mustOK(t, c.call("satya", 0, proto.OpTestValid,
		proto.Marshal(proto.TestValidArgs{Ref: pathRef("/u/f"), Version: st.Version}), nil))
	tv, _ = proto.Unmarshal(resp.Body, proto.DecodeTestValidReply)
	if tv.Valid {
		t.Fatal("stale copy reported valid")
	}
	if tv.Version <= st.Version {
		t.Fatal("server did not report newer version")
	}
}

func TestSymlinkWalkOnServer(t *testing.T) {
	c := newCell(t, Prototype, 1)
	c.mkVolume(t, "sys", "/sys", "operator", 0)
	c.store(t, "operator", "/sys/real", []byte("target data"))
	mustOK(t, c.call("operator", 0, proto.OpSymlink,
		proto.Marshal(proto.SymlinkArgs{Dir: pathRef("/sys"), Name: "alias", Target: "/sys/real"}), nil))
	got, _ := c.fetch(t, "satya", "/sys/alias")
	if string(got) != "target data" {
		t.Fatalf("through-symlink fetch = %q", got)
	}
	// Relative symlink too.
	mustOK(t, c.call("operator", 0, proto.OpSymlink,
		proto.Marshal(proto.SymlinkArgs{Dir: pathRef("/sys"), Name: "rel", Target: "real"}), nil))
	got, _ = c.fetch(t, "satya", "/sys/rel")
	if string(got) != "target data" {
		t.Fatalf("relative symlink fetch = %q", got)
	}
}

func TestSymlinkLoopDetected(t *testing.T) {
	c := newCell(t, Prototype, 1)
	c.mkVolume(t, "sys", "/sys", "operator", 0)
	mustOK(t, c.call("operator", 0, proto.OpSymlink,
		proto.Marshal(proto.SymlinkArgs{Dir: pathRef("/sys"), Name: "a", Target: "/sys/b"}), nil))
	mustOK(t, c.call("operator", 0, proto.OpSymlink,
		proto.Marshal(proto.SymlinkArgs{Dir: pathRef("/sys"), Name: "b", Target: "/sys/a"}), nil))
	resp := c.call("satya", 0, proto.OpFetch, proto.Marshal(proto.FetchArgs{Ref: pathRef("/sys/a")}), nil)
	wantCode(t, resp, proto.CodeLoop)
}

func TestWrongServerHint(t *testing.T) {
	c := newCell(t, Prototype, 2)
	// Volume /usr/satya lives on server0; ask server1.
	c.mkVolume(t, "u", "/u", "satya", 0)
	resp := c.call("satya", 1, proto.OpFetch, proto.Marshal(proto.FetchArgs{Ref: pathRef("/u")}), nil)
	wantCode(t, resp, proto.CodeWrongServer)
	if string(resp.Body) != "server0" {
		t.Fatalf("custodian hint = %q, want server0", resp.Body)
	}
}

func TestQuotaEnforcedThroughStore(t *testing.T) {
	c := newCell(t, Prototype, 1)
	c.mkVolume(t, "u", "/u", "satya", 100)
	c.store(t, "satya", "/u/f", make([]byte, 90))
	resp := c.call("satya", 0, proto.OpCreate,
		proto.Marshal(proto.NameArgs{Dir: pathRef("/u"), Name: "g", Mode: 0o644}), nil)
	mustOK(t, resp)
	resp = c.call("satya", 0, proto.OpStore,
		proto.Marshal(proto.StoreArgs{Ref: pathRef("/u/g")}), make([]byte, 20))
	wantCode(t, resp, proto.CodeQuota)
}

func TestPerFileModeBitsRevised(t *testing.T) {
	c := newCell(t, Revised, 1)
	c.mkVolume(t, "u", "/u", "satya", 0)
	c.store(t, "satya", "/u/f", []byte("locked down"))
	// chmod 0444: no write bits.
	mustOK(t, c.call("satya", 0, proto.OpSetStatus,
		proto.Marshal(proto.SetStatusArgs{Ref: pathRef("/u/f"), SetMode: true, Mode: 0o444}), nil))
	resp := c.call("satya", 0, proto.OpStore,
		proto.Marshal(proto.StoreArgs{Ref: pathRef("/u/f")}), []byte("overwrite"))
	wantCode(t, resp, proto.CodeAccess)
	// In prototype mode the same sequence would succeed (per-dir ACL only).
	c2 := newCell(t, Prototype, 1)
	c2.mkVolume(t, "u", "/u", "satya", 0)
	c2.store(t, "satya", "/u/f", []byte("x"))
	mustOK(t, c2.call("satya", 0, proto.OpSetStatus,
		proto.Marshal(proto.SetStatusArgs{Ref: pathRef("/u/f"), SetMode: true, Mode: 0o444}), nil))
	mustOK(t, c2.call("satya", 0, proto.OpStore,
		proto.Marshal(proto.StoreArgs{Ref: pathRef("/u/f")}), []byte("y")))
}

func TestAdvisoryLocks(t *testing.T) {
	c := newCell(t, Prototype, 1)
	c.mkVolume(t, "u", "/u", "satya", 0)
	// Grant howard lock rights via AnyUser.
	acl := prot.NewACL()
	acl.Grant("satya", prot.RightsAll)
	acl.Grant(prot.AnyUser, prot.RightLookup|prot.RightRead|prot.RightLock)
	mustOK(t, c.call("satya", 0, proto.OpSetACL,
		proto.Marshal(proto.ACLArgs{Dir: pathRef("/u"), ACL: proto.ACLEncode(acl)}), nil))
	c.store(t, "satya", "/u/f", []byte("x"))

	lock := func(user string, excl bool) rpc.Response {
		return c.call(user, 0, proto.OpSetLock,
			proto.Marshal(proto.LockArgs{Ref: pathRef("/u/f"), Exclusive: excl}), nil)
	}
	unlock := func(user string) rpc.Response {
		return c.call(user, 0, proto.OpReleaseLock,
			proto.Marshal(proto.LockArgs{Ref: pathRef("/u/f")}), nil)
	}
	mustOK(t, lock("satya", false))
	mustOK(t, lock("howard", false)) // multi-reader
	wantCode(t, lock("howard", true), proto.CodeLocked)
	mustOK(t, unlock("satya"))
	mustOK(t, lock("howard", true))                     // sole reader may upgrade
	wantCode(t, lock("satya", false), proto.CodeLocked) // writer excludes readers
	mustOK(t, unlock("howard"))
	mustOK(t, lock("satya", false))
	mustOK(t, unlock("satya"))
}

func TestRenameDirectorySubtreeByPath(t *testing.T) {
	c := newCell(t, Prototype, 1)
	c.mkVolume(t, "u", "/u", "satya", 0)
	mustOK(t, c.call("satya", 0, proto.OpMakeDir,
		proto.Marshal(proto.NameArgs{Dir: pathRef("/u"), Name: "src", Mode: 0o755}), nil))
	c.store(t, "satya", "/u/src/main.c", []byte("int main;"))
	mustOK(t, c.call("satya", 0, proto.OpRename,
		proto.Marshal(proto.RenameArgs{
			FromDir: pathRef("/u"), FromName: "src",
			ToDir: pathRef("/u"), ToName: "源",
		}), nil))
	got, _ := c.fetch(t, "satya", "/u/源/main.c")
	if string(got) != "int main;" {
		t.Fatalf("after rename: %q", got)
	}
}

func TestVolCloneServesOldVersionAfterUpdate(t *testing.T) {
	c := newCell(t, Prototype, 1)
	vid := c.mkVolume(t, "sys.bin", "/bin", "operator", 0)
	c.store(t, "operator", "/bin/cc", []byte("cc-v1"))

	resp := mustOK(t, c.call("operator", 0, proto.OpVolClone,
		proto.Marshal(proto.VolCloneArgs{Volume: vid, Path: "/bin-v1"}), nil))
	vs, _ := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
	if !vs.ReadOnly {
		t.Fatal("clone not read-only")
	}
	// Update the RW volume; the clone stays frozen.
	c.store(t, "operator", "/bin/cc", []byte("cc-v2"))
	got, _ := c.fetch(t, "satya", "/bin-v1/cc")
	if string(got) != "cc-v1" {
		t.Fatalf("clone serves %q, want cc-v1", got)
	}
	got, _ = c.fetch(t, "satya", "/bin/cc")
	if string(got) != "cc-v2" {
		t.Fatalf("rw serves %q, want cc-v2", got)
	}
	// Stores into the clone are refused.
	resp = c.call("operator", 0, proto.OpStore,
		proto.Marshal(proto.StoreArgs{Ref: pathRef("/bin-v1/cc")}), []byte("z"))
	wantCode(t, resp, proto.CodeReadOnly)
}

func TestVolCloneReplicatesToPeers(t *testing.T) {
	c := newCell(t, Prototype, 2)
	vid := c.mkVolume(t, "sys.bin", "/bin", "operator", 0)
	c.store(t, "operator", "/bin/ls", []byte("ls-bin"))
	resp := mustOK(t, c.call("operator", 0, proto.OpVolClone,
		proto.Marshal(proto.VolCloneArgs{Volume: vid, Path: "/bin-ro", Replicas: []string{"server1"}}), nil))
	vs, _ := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
	// server1 now stores a copy of the clone and can serve it directly.
	if _, ok := c.servers[1].Volume(vs.Volume); !ok {
		t.Fatal("replica not installed on server1")
	}
	resp = mustOK(t, c.call("satya", 1, proto.OpFetch,
		proto.Marshal(proto.FetchArgs{Ref: proto.Ref{FID: proto.FID{Volume: vs.Volume, Vnode: volume.RootVnode, Uniq: 1}}}), nil))
	entries, err := proto.Unmarshal(resp.Bulk, proto.DecodeDirEntries)
	if err != nil || len(entries) != 1 || entries[0].Name != "ls" {
		t.Fatalf("replica listing: %+v %v", entries, err)
	}
	// The location database on both servers lists the replica.
	le, ok := c.servers[1].Loc().Resolve("/bin-ro")
	if !ok || len(le.Replicas) != 1 || le.Replicas[0] != "server1" {
		t.Fatalf("loc entry = %+v", le)
	}
}

func TestVolMoveChangesCustodianEverywhere(t *testing.T) {
	c := newCell(t, Prototype, 2)
	vid := c.mkVolume(t, "u", "/u", "satya", 0)
	c.store(t, "satya", "/u/f", []byte("data"))
	mustOK(t, c.call("operator", 0, proto.OpVolMove,
		proto.Marshal(proto.VolMoveArgs{Volume: vid, Target: "server1"}), nil))
	// Volume is gone from server0 and present on server1.
	if _, ok := c.servers[0].Volume(vid); ok {
		t.Fatal("volume still on source")
	}
	if _, ok := c.servers[1].Volume(vid); !ok {
		t.Fatal("volume not on target")
	}
	// Both replicas of the location database point at server1.
	for i, s := range c.servers {
		le, ok := s.Loc().Resolve("/u/f")
		if !ok || le.Custodian != "server1" {
			t.Fatalf("server%d loc = %+v", i, le)
		}
	}
	// server0 redirects; server1 serves.
	resp := c.call("satya", 0, proto.OpFetch, proto.Marshal(proto.FetchArgs{Ref: pathRef("/u/f")}), nil)
	wantCode(t, resp, proto.CodeWrongServer)
	resp = mustOK(t, c.call("satya", 1, proto.OpFetch, proto.Marshal(proto.FetchArgs{Ref: pathRef("/u/f")}), nil))
	if string(resp.Bulk) != "data" {
		t.Fatalf("after move: %q", resp.Bulk)
	}
}

func TestVolMoveNonAdminRefused(t *testing.T) {
	c := newCell(t, Prototype, 2)
	vid := c.mkVolume(t, "u", "/u", "satya", 0)
	resp := c.call("mallory", 0, proto.OpVolMove,
		proto.Marshal(proto.VolMoveArgs{Volume: vid, Target: "server1"}), nil)
	wantCode(t, resp, proto.CodeNotAllowed)
}

func TestProtMutateRequiresAuthority(t *testing.T) {
	c := newCell(t, Prototype, 2)
	m := prot.Mutation{Kind: prot.MutAddUser, Name: "newbie", Key: secure.DeriveKey("newbie", "pw")}
	// server1 is not the protection server.
	resp := c.call("operator", 1, proto.OpProtMutate, proto.Marshal(m), nil)
	wantCode(t, resp, proto.CodeNotAllowed)
	// server0 is.
	mustOK(t, c.call("operator", 0, proto.OpProtMutate, proto.Marshal(m), nil))
	if _, ok := c.servers[0].DB().LookupKey("newbie"); !ok {
		t.Fatal("user not added")
	}
}

func TestServerToServerOpsRejectClients(t *testing.T) {
	c := newCell(t, Prototype, 1)
	resp := c.call("mallory", 0, proto.OpLocInstall,
		proto.Marshal(proto.LocInstallArgs{Entries: []proto.LocEntry{{Prefix: "/evil", Volume: 99, Custodian: "x"}}}), nil)
	wantCode(t, resp, proto.CodeNotAllowed)
	resp = c.call("mallory", 0, proto.OpVolInstall,
		proto.Marshal(proto.VolInstallArgs{Volume: 99}), nil)
	wantCode(t, resp, proto.CodeNotAllowed)
	resp = c.call("mallory", 0, proto.OpProtInstall,
		proto.Marshal(prot.Mutation{Kind: prot.MutAddUser, Name: "evil"}), nil)
	wantCode(t, resp, proto.CodeNotAllowed)
}

func TestFetchByFIDAndStaleFID(t *testing.T) {
	c := newCell(t, Revised, 1)
	c.mkVolume(t, "u", "/u", "satya", 0)
	st := c.store(t, "satya", "/u/f", []byte("by fid"))
	resp := mustOK(t, c.call("satya", 0, proto.OpFetch,
		proto.Marshal(proto.FetchArgs{Ref: proto.Ref{FID: st.FID}}), nil))
	if string(resp.Bulk) != "by fid" {
		t.Fatalf("fetch by FID: %q", resp.Bulk)
	}
	// Remove it; the FID goes stale.
	mustOK(t, c.call("satya", 0, proto.OpRemove,
		proto.Marshal(proto.NameArgs{Dir: pathRef("/u"), Name: "f"}), nil))
	resp = c.call("satya", 0, proto.OpFetch,
		proto.Marshal(proto.FetchArgs{Ref: proto.Ref{FID: st.FID}}), nil)
	wantCode(t, resp, proto.CodeStale)
}

// recordingBack captures callback breaks.
type recordingBack struct {
	user   string
	breaks []proto.FID
}

func (r *recordingBack) CallBack(_ *sim.Proc, req rpc.Request) (rpc.Response, error) {
	args, err := proto.Unmarshal(req.Body, proto.DecodeCallbackBreakArgs)
	if err != nil {
		return rpc.Response{Code: proto.CodeBadRequest}, nil
	}
	r.breaks = append(r.breaks, args.FID)
	return rpc.Response{}, nil
}

func (r *recordingBack) BackUser() string { return r.user }

func TestCallbackPromiseAndBreak(t *testing.T) {
	c := newCell(t, Revised, 1)
	c.mkVolume(t, "u", "/u", "satya", 0)
	// Writable by howard too.
	acl := prot.NewACL()
	acl.Grant("satya", prot.RightsAll)
	acl.Grant("howard", prot.RightsAll)
	mustOK(t, c.call("satya", 0, proto.OpSetACL,
		proto.Marshal(proto.ACLArgs{Dir: pathRef("/u"), ACL: proto.ACLEncode(acl)}), nil))
	st := c.store(t, "satya", "/u/f", []byte("v1"))

	reader := &recordingBack{user: "howard"}
	// howard fetches with a backchannel: the server records a promise.
	resp := c.servers[0].Dispatcher().Dispatch(
		rpc.Ctx{User: "howard", Back: reader},
		rpc.Request{Op: rpc.Op(proto.OpFetch), Body: proto.Marshal(proto.FetchArgs{Ref: pathRef("/u/f")})})
	mustOK(t, resp)
	if c.servers[0].Callbacks().Outstanding() == 0 {
		t.Fatal("no promise recorded")
	}
	// satya stores a new version; howard's callback must break.
	writer := &recordingBack{user: "satya"}
	resp = c.servers[0].Dispatcher().Dispatch(
		rpc.Ctx{User: "satya", Back: writer},
		rpc.Request{Op: rpc.Op(proto.OpStore), Body: proto.Marshal(proto.StoreArgs{Ref: pathRef("/u/f")}), Bulk: []byte("v2")})
	mustOK(t, resp)
	if len(reader.breaks) != 1 || reader.breaks[0] != st.FID {
		t.Fatalf("reader breaks = %v, want [%v]", reader.breaks, st.FID)
	}
	if len(writer.breaks) != 0 {
		t.Fatal("writer's own callback broken")
	}
	promised, breaks := c.servers[0].Callbacks().Stats()
	if promised == 0 || breaks != 1 {
		t.Fatalf("stats = %d promised, %d breaks", promised, breaks)
	}
}

func TestCallbacksNotUsedInPrototype(t *testing.T) {
	c := newCell(t, Prototype, 1)
	c.mkVolume(t, "u", "/u", "satya", 0)
	reader := &recordingBack{user: "satya"}
	resp := c.servers[0].Dispatcher().Dispatch(
		rpc.Ctx{User: "satya", Back: reader},
		rpc.Request{Op: rpc.Op(proto.OpFetch), Body: proto.Marshal(proto.FetchArgs{Ref: pathRef("/u")})})
	mustOK(t, resp)
	if c.servers[0].Callbacks().Outstanding() != 0 {
		t.Fatal("prototype recorded callback promises")
	}
}

func TestActionConsistencyOldOrNewNeverMixed(t *testing.T) {
	// "A workstation which fetches a file at the same time that another
	// workstation is storing it will either receive the old version or the
	// new one, but never a partially modified version" (§3.6). With
	// whole-slice replacement this holds structurally; verify fetch returns
	// exactly one of the two versions byte-for-byte.
	c := newCell(t, Prototype, 1)
	c.mkVolume(t, "u", "/u", "satya", 0)
	old := []byte("old old old")
	new_ := []byte("NEW NEW NEW NEW")
	c.store(t, "satya", "/u/f", old)
	got1, _ := c.fetch(t, "satya", "/u/f")
	c.store(t, "satya", "/u/f", new_)
	got2, _ := c.fetch(t, "satya", "/u/f")
	if string(got1) != string(old) || string(got2) != string(new_) {
		t.Fatalf("versions mixed: %q %q", got1, got2)
	}
	// The fetched copy of the old version is immune to the later store
	// (no aliasing of returned slices with live vnode data).
	if &got1[0] == &got2[0] {
		t.Fatal("fetch returned aliased buffers")
	}
}

func TestSalvageAllAfterCrash(t *testing.T) {
	c := newCell(t, Prototype, 1)
	vid := c.mkVolume(t, "u", "/u", "satya", 0)
	c.store(t, "satya", "/u/f", []byte("x"))
	v, _ := c.servers[0].Volume(vid)
	v.CorruptForTest()
	reports := c.servers[0].SalvageAll()
	if reports[vid].OrphansRemoved == 0 {
		t.Fatalf("salvage found nothing: %+v", reports[vid])
	}
	// Files still readable afterwards.
	got, _ := c.fetch(t, "satya", "/u/f")
	if string(got) != "x" {
		t.Fatalf("post-salvage read: %q", got)
	}
}

func TestLocDBLongestPrefix(t *testing.T) {
	l := NewLocDB()
	l.Install([]proto.LocEntry{
		{Prefix: "/", Volume: 1, Custodian: "s0"},
		{Prefix: "/usr", Volume: 2, Custodian: "s0"},
		{Prefix: "/usr/satya", Volume: 3, Custodian: "s1"},
	}, nil)
	cases := []struct {
		path string
		vol  uint32
	}{
		{"/", 1},
		{"/tmp/x", 1},
		{"/usr", 2},
		{"/usr/howard/f", 2},
		{"/usr/satya", 3},
		{"/usr/satya/deep/file", 3},
	}
	for _, tc := range cases {
		le, ok := l.Resolve(tc.path)
		if !ok || le.Volume != tc.vol {
			t.Errorf("Resolve(%s) = %+v, want vol %d", tc.path, le, tc.vol)
		}
	}
	if got := l.Entries(); len(got) != 3 {
		t.Fatalf("Entries = %d", len(got))
	}
	l.Install(nil, []string{"/usr/satya"})
	if le, _ := l.Resolve("/usr/satya/f"); le.Volume != 2 {
		t.Fatalf("after removal: %+v", le)
	}
}

func TestLockTableReleaseAll(t *testing.T) {
	lt := NewLockTable()
	fid := proto.FID{Volume: 1, Vnode: 2, Uniq: 3}
	if err := lt.Lock(fid, "u1", true); err != nil {
		t.Fatal(err)
	}
	lt.ReleaseAllFor("u1")
	if err := lt.Lock(fid, "u2", true); err != nil {
		t.Fatalf("lock after ReleaseAllFor: %v", err)
	}
}

func TestUnlockWithoutHold(t *testing.T) {
	lt := NewLockTable()
	fid := proto.FID{Volume: 1, Vnode: 2, Uniq: 3}
	if err := lt.Unlock(fid, "u"); !errors.Is(err, proto.ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

// TestModeTextRoundTrip: each mode's text reads back as the mode, and any
// other text, a name in another case included, is refused and leaves the
// mode alone.
func TestModeTextRoundTrip(t *testing.T) {
	for _, m := range []Mode{Prototype, Revised} {
		text, err := m.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if string(text) != m.String() {
			t.Errorf("%v marshals as %q", m, text)
		}
		got := Revised
		if m == Revised {
			got = Prototype
		}
		if err := got.UnmarshalText(text); err != nil || got != m {
			t.Errorf("%q unmarshals as %v, %v; want %v", text, got, err, m)
		}
	}
	for _, text := range []string{"Prototype", "REVISED", "bogus", ""} {
		got := Revised
		if err := got.UnmarshalText([]byte(text)); err == nil || got != Revised {
			t.Errorf("%q unmarshals as %v, %v; want an error", text, got, err)
		}
	}
}
