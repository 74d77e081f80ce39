package vice

import (
	"math/rand"
	"testing"
	"testing/quick"

	"itcfs/internal/fault"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
)

// Vice serves mutually suspicious workstations: whatever bytes arrive in a
// request body, the server must answer with an error code — never panic,
// never hang, never corrupt state.

// gateFree fails t if the handler just dispatched returned holding s's gate:
// the check a lock-and-unlock discipline needs on its error returns.
func gateFree(t testing.TB, s *Server) {
	t.Helper()
	if !s.gate.TryLock() {
		t.Fatal("a handler returned holding the gate")
	}
	s.gate.Unlock()
}

var allOps = []uint16{
	proto.OpFetch, proto.OpStore, proto.OpFetchStatus, proto.OpSetStatus,
	proto.OpTestValid, proto.OpBulkTestValid, proto.OpCreate, proto.OpMakeDir, proto.OpRemove,
	proto.OpRemoveDir, proto.OpRename, proto.OpSymlink, proto.OpLink,
	proto.OpSetACL, proto.OpGetACL, proto.OpSetLock, proto.OpReleaseLock,
	proto.OpGetCustodian, proto.OpVolCreate, proto.OpVolClone,
	proto.OpVolStatus, proto.OpVolSetQuota, proto.OpVolOffline,
	proto.OpVolOnline, proto.OpVolMove, proto.OpVolSalvage,
	proto.OpProtMutate, proto.OpProtSnapshot, proto.OpLocInstall,
	proto.OpVolInstall, proto.OpProtInstall, proto.OpCallbackBreak, 9999,
}

func TestHandlersSurviveGarbage(t *testing.T) {
	c := newCell(t, Revised, 1)
	c.mkVolume(t, "u", "/u", "satya", 0)
	c.store(t, "satya", "/u/f", []byte("seed data"))

	f := func(seed int64, body, bulk []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		op := allOps[r.Intn(len(allOps))]
		for _, user := range []string{"mallory", "operator", ServerUser} {
			resp := c.servers[0].Dispatcher().Dispatch(
				rpc.Ctx{User: user},
				rpc.Request{Op: rpc.Op(op), Body: body, Bulk: bulk},
			)
			_ = resp
			gateFree(t, c.servers[0])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	// The server still works after the bombardment.
	resp := c.call("satya", 0, proto.OpFetch, proto.Marshal(proto.FetchArgs{Ref: pathRef("/u/f")}), nil)
	if !resp.OK() || string(resp.Bulk) != "seed data" {
		t.Fatalf("server damaged by garbage: code %d %q", resp.Code, resp.Bulk)
	}
}

// Well-formed requests against nonsense references must come back with
// clean service errors.
func TestHandlersRejectNonsenseRefs(t *testing.T) {
	c := newCell(t, Revised, 1)
	bogus := []proto.Ref{
		{},                                       // empty
		{Path: "not-absolute"},                   // relative path
		{FID: proto.FID{Volume: 9999, Vnode: 1}}, // unknown volume
		{FID: proto.FID{Volume: 1, Vnode: 9999, Uniq: 3}}, // unknown vnode
	}
	for _, ref := range bogus {
		resp := c.call("satya", 0, proto.OpFetch, proto.Marshal(proto.FetchArgs{Ref: ref}), nil)
		gateFree(t, c.servers[0])
		if resp.OK() {
			t.Errorf("fetch of %v succeeded", ref)
		}
		if resp.Code == rpc.CodeUnknownOp {
			t.Errorf("fetch of %v fell through dispatch", ref)
		}
	}
}

// chaosBodies returns request bodies for the operations the chaos harness
// issues, plus fault-injector-corrupted copies — the corpus starts from the
// frames that actually cross the wire under fault injection rather than
// from empty bytes.
func chaosBodies() [][]byte {
	ref := proto.Ref{Path: "/u/f"}
	fidRef := proto.Ref{FID: proto.FID{Volume: 2, Vnode: 2, Uniq: 2}}
	bodies := [][]byte{
		proto.Marshal(proto.FetchArgs{Ref: ref}),
		proto.Marshal(proto.StoreArgs{Ref: fidRef, Mode: 0o644}),
		proto.Marshal(proto.TestValidArgs{Ref: fidRef, Version: 1}),
		proto.Marshal(proto.NameArgs{Dir: proto.Ref{Path: "/u"}, Name: "sub0", Mode: 0o755}),
		proto.Marshal(proto.RenameArgs{FromDir: ref, FromName: "a", ToDir: ref, ToName: "b"}),
		proto.Marshal(proto.CustodianArgs{Path: "/u"}),
	}
	inj := fault.New(fault.Config{Seed: 1985})
	for _, b := range bodies[:len(bodies):len(bodies)] {
		damaged := append([]byte(nil), b...)
		inj.Corrupt(damaged)
		bodies = append(bodies, damaged)
	}
	return bodies
}

// FuzzResolvePath hammers the server-side pathname walk (the prototype's
// hot path) with arbitrary paths: any outcome is fine except a panic.
func FuzzResolvePath(f *testing.F) {
	c := newCell(f, Prototype, 1)
	c.mkVolume(f, "u", "/u", "satya", 0)
	c.mkdirAll(f, "/u/d1/d2")
	c.store(f, "satya", "/u/d1/link-target", []byte("x"))
	mustOK(f, c.call("satya", 0, proto.OpSymlink,
		proto.Marshal(proto.SymlinkArgs{Dir: proto.Ref{Path: "/u/d1"}, Name: "l", Target: "/u/d1/link-target"}), nil))
	for _, seed := range []string{
		"", "/", "/u", "/u/d1/d2", "/u/d1/l", "/u/./d1/../d1/l", "not-absolute",
		"/u//d1", "/u/d1/d2/missing", "/u/\x00/f", "/u/d1/l/through-symlink",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		for _, follow := range []bool{true, false} {
			if _, _, err := c.servers[0].resolvePath(path, follow); err != nil {
				continue // rejection is the common, correct outcome
			}
		}
	})
}

// FuzzDispatch feeds arbitrary (op, body, bulk) triples straight into the
// dispatcher as several identities. The server must answer every one —
// error codes are fine, panics and hangs are not — and stay undamaged.
func FuzzDispatch(f *testing.F) {
	c := newCell(f, Revised, 1)
	c.mkVolume(f, "u", "/u", "satya", 0)
	c.store(f, "satya", "/u/f", []byte("seed data"))
	for i, body := range chaosBodies() {
		f.Add(allOps[i%len(allOps)], body, []byte(nil))
	}
	f.Add(uint16(9999), []byte(nil), []byte("bulk with no body"))
	// Names that are not names, through each way a name enters a directory.
	u, uf := proto.Ref{Path: "/u"}, proto.Ref{Path: "/u/f"}
	for _, name := range hostileNames {
		f.Add(proto.OpCreate, proto.Marshal(proto.NameArgs{Dir: u, Name: name, Mode: 0o644}), []byte(nil))
		f.Add(proto.OpMakeDir, proto.Marshal(proto.NameArgs{Dir: u, Name: name, Mode: 0o755}), []byte(nil))
		f.Add(proto.OpSymlink, proto.Marshal(proto.SymlinkArgs{Dir: u, Name: name, Target: "/u/f"}), []byte(nil))
		f.Add(proto.OpLink, proto.Marshal(proto.LinkArgs{Dir: u, Name: name, Target: uf}), []byte(nil))
		f.Add(proto.OpRename, proto.Marshal(proto.RenameArgs{FromDir: u, FromName: "f", ToDir: u, ToName: name}), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, op uint16, body, bulk []byte) {
		for _, user := range []string{"mallory", "satya", "operator", ServerUser} {
			c.servers[0].Dispatcher().Dispatch(
				rpc.Ctx{User: user},
				rpc.Request{Op: rpc.Op(op), Body: body, Bulk: bulk},
			)
			gateFree(t, c.servers[0])
		}
		// The server must still answer well-formed requests afterwards.
		// (A fuzzed input may itself be a legal mutation — even a Remove
		// of the probe file — so only the response's coherence is checked,
		// not the file's survival.)
		resp := c.call("satya", 0, proto.OpFetch,
			proto.Marshal(proto.FetchArgs{Ref: proto.Ref{Path: "/u/f"}}), nil)
		if resp.OK() && resp.Body == nil {
			t.Fatalf("fetch OK but carried no status: %+v", resp)
		}
	})
}

func TestAtomicReRelease(t *testing.T) {
	// Releasing v2 at the same path atomically replaces v1; both clones
	// coexist as volumes (§3.2's multiple coexisting versions).
	c := newCell(t, Prototype, 1)
	vid := c.mkVolume(t, "sys", "/sys", "operator", 0)
	c.store(t, "operator", "/sys/tool", []byte("tool-v1"))
	resp := mustOK(t, c.call("operator", 0, proto.OpVolClone,
		proto.Marshal(proto.VolCloneArgs{Volume: vid, Path: "/sys-release"}), nil))
	v1, _ := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)

	c.store(t, "operator", "/sys/tool", []byte("tool-v2"))
	resp = mustOK(t, c.call("operator", 0, proto.OpVolClone,
		proto.Marshal(proto.VolCloneArgs{Volume: vid, Path: "/sys-release"}), nil))
	v2, _ := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
	if v1.Volume == v2.Volume {
		t.Fatal("re-release reused the volume id")
	}

	// The release path now serves v2.
	got, _ := c.fetch(t, "satya", "/sys-release/tool")
	if string(got) != "tool-v2" {
		t.Fatalf("release path serves %q", got)
	}
	// The old clone volume still exists and still holds v1.
	if _, ok := c.servers[0].Volume(v1.Volume); !ok {
		t.Fatal("old release volume destroyed")
	}
	resp = mustOK(t, c.call("satya", 0, proto.OpFetch, proto.Marshal(proto.FetchArgs{
		Ref: proto.Ref{FID: proto.FID{Volume: v1.Volume, Vnode: 2, Uniq: 2}},
	}), nil))
}
