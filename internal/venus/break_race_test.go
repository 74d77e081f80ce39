package venus

import (
	"fmt"
	"testing"
	"time"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
	"itcfs/internal/vice"
)

// Regression coverage for the fetch/break race: a callback break that lands
// while a Fetch is in flight must not be clobbered when the fetched copy is
// installed. fetchEntry snapshots breakGen around the RPC for exactly this;
// without it the entry would be installed valid, the promise would look
// intact, and this workstation would serve the superseded copy forever.

// hookConn wraps a Conn and runs a hook between receiving each successful
// response and handing it back to Venus — the window where a break can race
// the install. A hook may keep what it is shown, so Venus gets the response
// rebuilt from its fields: its Release does nothing, and a frame the real
// transport lent is left to the collector instead of being wiped and reused.
type hookConn struct {
	inner Conn
	hook  func(req rpc.Request, resp rpc.Response)
}

func (c hookConn) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	resp, err := c.inner.Call(p, req)
	if err == nil && c.hook != nil {
		c.hook(req, resp)
		resp = rpc.Response{Code: resp.Code, Body: resp.Body, Bulk: resp.Bulk, Owned: resp.Owned}
	}
	return resp, err
}

// newHookedVenus builds a Venus like testCell.newVenus, but with every
// connection wrapped in a hookConn sharing one hook function.
func newHookedVenus(c *testCell, home, user string, hook *func(rpc.Request, rpc.Response)) *Venus {
	local := unixfs.New(c.tick)
	cfg := Config{
		Mode:       c.mode,
		Machine:    "ws-hooked-" + user,
		Local:      local,
		HomeServer: home,
	}
	var v *Venus
	back := &wsBack{}
	cfg.Connect = func(_ *sim.Proc, server string) (Conn, error) {
		s, ok := c.servers[server]
		if !ok {
			return nil, fmt.Errorf("no such server %s", server)
		}
		return hookConn{
			inner: wsConn{srv: s, user: v.User, back: back},
			hook:  func(req rpc.Request, resp rpc.Response) { (*hook)(req, resp) },
		}, nil
	}
	v = New(cfg)
	back.v = v
	v.Login(user)
	return v
}

func TestBreakDuringInFlightFetchNotClobbered(t *testing.T) {
	c := newTestCell(t, vice.Revised, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	w := c.newVenus("s0", "satya", nil)

	hook := func(rpc.Request, rpc.Response) {}
	v := newHookedVenus(c, "s0", "satya", &hook)

	const path = "/u/f"
	writeFile(t, w, path, "v1")
	if got := readFile(t, v, path); got != "v1" {
		t.Fatalf("initial read: got %q, want v1", got)
	}
	v.mu.Lock()
	fid := v.byPath[path].fid
	v.mu.Unlock()

	// Invalidate the reader's copy so its next open must fetch.
	writeFile(t, w, path, "v2")

	// Arm: when the reader's Fetch for this file completes at the server but
	// before Venus installs the v2 copy, the writer supersedes it with v3 —
	// whose callback break is delivered (synchronously here) mid-fetch.
	fired := false
	hook = func(req rpc.Request, resp rpc.Response) {
		if fired || req.Op != rpc.Op(proto.OpFetch) || !resp.OK() {
			return
		}
		args, err := proto.Unmarshal(req.Body, proto.DecodeFetchArgs)
		if err != nil || args.Ref.FID != fid {
			return
		}
		fired = true
		writeFile(t, w, path, "v3")
	}
	if got := readFile(t, v, path); got != "v2" {
		// The open raced the v3 store and fetched before it landed; serving
		// the copy the open bound to is timesharing semantics.
		t.Fatalf("racing read: got %q, want v2", got)
	}
	if !fired {
		t.Fatal("hook never fired; the race was not exercised")
	}

	// The mid-flight break must have marked the just-installed copy invalid.
	v.mu.Lock()
	valid := v.byPath[path].valid
	v.mu.Unlock()
	if valid {
		t.Fatal("entry installed by the racing fetch still claims a valid promise")
	}

	// And the next open must go back to the custodian and see v3, not serve
	// the superseded v2 copy off a resurrected promise.
	before := v.Stats().Fetches
	if got := readFile(t, v, path); got != "v3" {
		t.Fatalf("post-race read: got %q, want v3 (stale copy resurrected)", got)
	}
	if v.Stats().Fetches == before {
		t.Fatal("post-race open trusted the cache instead of revalidating")
	}
}

// The same race one step later: dirCall patches the cached listing of the
// directory it just changed while a break for that directory — another
// client changed it too — arrives on the transport's serving goroutine.
// patchDir once read the entry's cacheFile and valid after dropping v.mu,
// which HandleCallbackBreak writes under it; the race detector is the
// assertion. The break is timed, not signalled, into the patch (stalled in
// the edit of the memoized listing, which patchDir makes under v.mu): any
// signal from the patching goroutine would order its reads before the
// break's write and hide the race.
func TestBreakWhileDirCallPatchesListing(t *testing.T) {
	c := newTestCell(t, vice.Revised, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	if _, err := v.ReadDir(nil, "/u"); err != nil {
		t.Fatal(err)
	}
	dir, err := v.Resolve(nil, "/u")
	if err != nil {
		t.Fatal(err)
	}
	stalled := false
	stalling := func(entries []proto.DirEntry, resp rpc.Response) []proto.DirEntry {
		stalled = true
		time.Sleep(100 * time.Millisecond) //itcvet:allow wallclock -- holds the patch open while the break lands on a real goroutine
		return patchAdd("d", proto.TypeDir)(entries, resp)
	}
	broke := make(chan struct{})
	go func() {
		defer close(broke)
		time.Sleep(10 * time.Millisecond) //itcvet:allow wallclock -- lands inside the stalled patch
		v.HandleCallbackBreak(rpc.Ctx{}, rpc.Request{Body: proto.Marshal(proto.CallbackBreakArgs{FID: dir})})
	}()
	ref := proto.Ref{FID: dir}
	if err := v.dirCall(nil, "/u", ref, newRequest(proto.OpMakeDir, proto.NameArgs{Dir: ref, Name: "d", Mode: 0o755}), stalling); err != nil {
		t.Fatal(err)
	}
	<-broke
	v.mu.Lock()
	e := v.byFID[dir]
	patched := e != nil && len(e.dirEnts) == 1 && e.dirEnts[0].Name == "d"
	v.mu.Unlock()
	if !stalled || !patched {
		t.Fatal("the listing was never patched; the race was not exercised")
	}
	// The break outlives the patch: the next listing comes from the custodian.
	before := v.Stats().Fetches
	ents, err := v.ReadDir(nil, "/u")
	if err != nil || len(ents) != 1 || ents[0].Name != "d" {
		t.Fatalf("listing after the patch and the break: %v, %v", ents, err)
	}
	if v.Stats().Fetches == before {
		t.Fatal("the patch resurrected a broken promise: the listing was served from the cache")
	}
}
