package venus

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
	"itcfs/internal/vice"
)

// testCell is an in-process cell: vice servers plus helper wiring that lets
// a Venus connect without a network (the rpc transports have their own
// tests; here we exercise Venus<->Vice logic).
type testCell struct {
	t       *testing.T
	mode    vice.Mode
	servers map[string]*vice.Server
	clock   atomic.Int64
}

// tick is the cell's clock: every reading is later than the last, from
// whichever goroutine it is taken.
func (c *testCell) tick() int64 { return c.clock.Add(1) }

// newTestCell boots a server per name, the root volume on the first.
func newTestCell(t *testing.T, mode vice.Mode, names ...string) *testCell {
	t.Helper()
	c := &testCell{t: t, mode: mode, servers: make(map[string]*vice.Server)}
	base := prot.NewDB()
	for _, user := range []string{"satya", "howard"} {
		if err := base.Apply(prot.Mutation{Kind: prot.MutAddUser, Name: user, Key: secure.DeriveKey(user, "pw")}); err != nil {
			t.Fatal(err)
		}
	}
	cfgs := make([]vice.Config, len(names))
	for i, name := range names {
		cfgs[i] = vice.Config{Name: name, Mode: mode, Clock: c.tick}
	}
	srvs, _, err := vice.BootCell(cfgs, base, "pw")
	if err != nil {
		t.Fatal(err)
	}
	for _, sa := range srvs {
		c.servers[sa.Name()] = sa
		for _, sb := range srvs {
			if sa != sb {
				sa.AddPeer(sb.Name(), peerCaller{sb})
			}
		}
	}
	return c
}

// peerCaller wires servers together.
type peerCaller struct{ srv *vice.Server }

func (pc peerCaller) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	return pc.srv.Dispatcher().Dispatch(rpc.Ctx{User: vice.ServerUser, Proc: p}, req), nil
}

// wsConn is a workstation's connection to one server, carrying the
// workstation's callback channel. It dispatches each call straight into the
// server and, as the simulated carrier does, hands the request to the server
// and the reply to Venus in copies of their own, marked Owned, which each
// keeps as it is handed. A lending connection passes both as they lie
// instead, not Owned, as a Peer passes a frame it lends.
type wsConn struct {
	srv  *vice.Server
	user func() string
	back rpc.Backchannel
	lend bool
}

func (c wsConn) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	if !c.lend {
		req.Body, req.Bulk, req.Owned = bytes.Clone(req.Body), bytes.Clone(req.Bulk), true
	}
	resp := c.srv.Dispatcher().Dispatch(rpc.Ctx{User: c.user(), Back: c.back, Proc: p}, req)
	if !c.lend {
		resp.Body, resp.Bulk, resp.Owned = bytes.Clone(resp.Body), bytes.Clone(resp.Bulk), true
	}
	return resp, nil
}

// wsBack delivers callbacks into a Venus.
type wsBack struct{ v *Venus }

func (b *wsBack) CallBack(_ *sim.Proc, req rpc.Request) (rpc.Response, error) {
	return b.v.HandleCallbackBreak(rpc.Ctx{}, req), nil
}
func (b *wsBack) BackUser() string { return b.v.User() }

// newVenus builds a Venus homed on the named server.
func (c *testCell) newVenus(home string, user string, tweak func(*Config)) *Venus {
	local := unixfs.New(c.tick)
	cfg := Config{
		Mode:       c.mode,
		Machine:    "ws-" + user,
		Local:      local,
		HomeServer: home,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	var v *Venus
	back := &wsBack{}
	cfg.Connect = func(_ *sim.Proc, server string) (Conn, error) {
		s, ok := c.servers[server]
		if !ok {
			return nil, fmt.Errorf("no such server %s", server)
		}
		return wsConn{srv: s, user: v.User, back: back}, nil
	}
	v = New(cfg)
	back.v = v
	v.Login(user)
	return v
}

// mkVolume creates a volume at path (ancestors created on demand).
func (c *testCell) mkVolume(name, path, owner string, quota int64) uint32 {
	c.t.Helper()
	op := c.newVenus(firstName(c), "operator", nil)
	// Create ancestors.
	dir := unixfs.Dir(path)
	var build func(d string)
	build = func(d string) {
		if d == "/" {
			return
		}
		build(unixfs.Dir(d))
		if err := op.Mkdir(nil, d, 0o755); err != nil && !errors.Is(err, proto.ErrExist) {
			c.t.Fatalf("mkdir %s: %v", d, err)
		}
	}
	build(dir)
	resp, err := op.callRef(nil, proto.Ref{Path: dir}, dir,
		newRequest(proto.OpVolCreate, proto.VolCreateArgs{Name: name, Path: path, Quota: quota, Owner: owner}))
	if err != nil || !resp.OK() {
		c.t.Fatalf("VolCreate %s: %v %d %s", path, err, resp.Code, resp.Body)
	}
	vs, err := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
	if err != nil {
		c.t.Fatal(err)
	}
	return vs.Volume
}

func firstName(c *testCell) string {
	for n := range c.servers {
		if s := c.servers[n]; s != nil {
			// Deterministic: pick the protection authority (first created).
			if _, ok := s.Volume(1); ok {
				return n
			}
		}
	}
	for n := range c.servers {
		return n
	}
	return ""
}

func writeFile(t *testing.T, v *Venus, path, contents string) {
	t.Helper()
	h, err := v.Open(nil, path, FlagWrite|FlagCreate|FlagTrunc)
	if err != nil {
		t.Fatalf("open %s for write: %v", path, err)
	}
	if _, err := h.Write([]byte(contents)); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := h.Close(nil); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

func readFile(t *testing.T, v *Venus, path string) string {
	t.Helper()
	h, err := v.Open(nil, path, FlagRead)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer h.Close(nil)
	buf := make([]byte, 1<<16)
	n, err := h.ReadAt(buf, 0)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(buf[:n])
}

func TestWriteThenReadBack(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("u.satya", "/usr/satya", "satya", 0)
			v := c.newVenus("s0", "satya", nil)
			writeFile(t, v, "/usr/satya/notes.txt", "whole-file caching works")
			if got := readFile(t, v, "/usr/satya/notes.txt"); got != "whole-file caching works" {
				t.Fatalf("read back %q", got)
			}
		})
	}
}

func TestSharingAcrossWorkstations(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("proj", "/proj", "satya", 0)
			op := c.newVenus("s0", "operator", nil)
			acl := prot.NewACL()
			acl.Grant("satya", prot.RightsAll)
			acl.Grant("howard", prot.RightsAll)
			if err := op.SetACL(nil, "/proj", proto.ACLEncode(acl)); err != nil {
				t.Fatal(err)
			}
			vs := c.newVenus("s0", "satya", nil)
			vh := c.newVenus("s0", "howard", nil)
			writeFile(t, vs, "/proj/plan", "v1 by satya")
			if got := readFile(t, vh, "/proj/plan"); got != "v1 by satya" {
				t.Fatalf("howard sees %q", got)
			}
			// howard updates; satya sees the change on next open
			// (check-on-open in prototype, callback break in revised).
			writeFile(t, vh, "/proj/plan", "v2 by howard")
			if got := readFile(t, vs, "/proj/plan"); got != "v2 by howard" {
				t.Fatalf("satya sees %q", got)
			}
		})
	}
}

func TestPrototypeValidatesEveryOpen(t *testing.T) {
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	writeFile(t, v, "/u/f", "data")
	v.ResetStats()
	for i := 0; i < 5; i++ {
		readFile(t, v, "/u/f")
	}
	st := v.Stats()
	if st.Validations != 5 {
		t.Fatalf("validations = %d, want 5", st.Validations)
	}
	if st.Hits != 5 || st.Fetches != 0 {
		t.Fatalf("hits = %d fetches = %d", st.Hits, st.Fetches)
	}
}

func TestRevisedOpensAreFreeUntilBreak(t *testing.T) {
	c := newTestCell(t, vice.Revised, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	op := c.newVenus("s0", "operator", nil)
	acl := prot.NewACL()
	acl.Grant("satya", prot.RightsAll)
	acl.Grant("howard", prot.RightsAll)
	if err := op.SetACL(nil, "/u", proto.ACLEncode(acl)); err != nil {
		t.Fatal(err)
	}
	v := c.newVenus("s0", "satya", nil)
	writeFile(t, v, "/u/f", "v1")
	readFile(t, v, "/u/f") // warm: caches /u directory and the file
	v.ResetStats()
	for i := 0; i < 5; i++ {
		readFile(t, v, "/u/f")
	}
	st := v.Stats()
	if st.Validations != 0 || st.Fetches != 0 || st.Hits != 5 {
		t.Fatalf("revised warm opens: %+v", st)
	}
	// Another workstation stores a new version: the callback fires and the
	// next open fetches.
	w := c.newVenus("s0", "howard", nil)
	writeFile(t, w, "/u/f", "v2")
	if got := readFile(t, v, "/u/f"); got != "v2" {
		t.Fatalf("after break: %q", got)
	}
	st = v.Stats()
	if st.CallbackBreaks == 0 {
		t.Fatal("no callback break recorded")
	}
	if st.Fetches == 0 {
		t.Fatal("no refetch after break")
	}
}

func TestPrototypeCountLimitedEviction(t *testing.T) {
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", func(cfg *Config) { cfg.MaxFiles = 3 })
	for i := 0; i < 6; i++ {
		writeFile(t, v, fmt.Sprintf("/u/f%d", i), "x")
	}
	files, _ := v.CacheUsage()
	if files > 3 {
		t.Fatalf("cache holds %d entries, limit 3", files)
	}
	if v.Stats().Evictions == 0 {
		t.Fatal("no evictions")
	}
}

func TestRevisedSpaceLimitedEviction(t *testing.T) {
	c := newTestCell(t, vice.Revised, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", func(cfg *Config) { cfg.MaxBytes = 3000 })
	for i := 0; i < 6; i++ {
		writeFile(t, v, fmt.Sprintf("/u/f%d", i), string(make([]byte, 1000)))
	}
	_, bytes := v.CacheUsage()
	if bytes > 3000 {
		t.Fatalf("cache holds %d bytes, limit 3000", bytes)
	}
	if v.Stats().Evictions == 0 {
		t.Fatal("no evictions")
	}
}

func TestLRUKeepsHotFile(t *testing.T) {
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", func(cfg *Config) { cfg.MaxFiles = 3 })
	writeFile(t, v, "/u/hot", "hot")
	for i := 0; i < 5; i++ {
		writeFile(t, v, fmt.Sprintf("/u/cold%d", i), "cold")
		readFile(t, v, "/u/hot") // keep it warm
	}
	v.ResetStats()
	readFile(t, v, "/u/hot")
	if v.Stats().Fetches != 0 {
		t.Fatal("hot file was evicted despite recency")
	}
}

func TestStatModes(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("u", "/u", "satya", 0)
			v := c.newVenus("s0", "satya", nil)
			writeFile(t, v, "/u/f", "hello")
			st, err := v.Stat(nil, "/u/f")
			if err != nil {
				t.Fatal(err)
			}
			if st.Size != 5 || st.Type != proto.TypeFile || st.Owner != "satya" {
				t.Fatalf("stat = %+v", st)
			}
			if _, err := v.Stat(nil, "/u/ghost"); !errors.Is(err, proto.ErrNoEnt) {
				t.Fatalf("stat ghost: %v", err)
			}
		})
	}
}

// cachedFileBytes sums the sizes of v's cache files.
func cachedFileBytes(t *testing.T, v *Venus) int64 {
	t.Helper()
	v.mu.Lock()
	defer v.mu.Unlock()
	var sum int64
	for el := v.lru.Front(); el != nil; el = el.Next() {
		if file := el.Value.(*entry).cacheFile; file != "" {
			st, err := v.cfg.Local.Stat(file)
			if err != nil {
				t.Fatal(err)
			}
			sum += st.Size
		}
	}
	return sum
}

// checkCacheBytes holds the byte count CacheUsage reports to what the cache
// holds: for a directory whose listing is memoized, the memo's size
// (proto.DirSize), which a patch edits ahead of the cache file; for any
// other entry, its cache file. Then each of dirs is opened and read whole:
// an open reads the listing as patched, the one ReadDir returns, and once
// every listing is written back the count is the cache files' bytes.
func checkCacheBytes(t *testing.T, v *Venus, when string, dirs ...string) {
	t.Helper()
	v.mu.Lock()
	var held int64
	for el := v.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		switch {
		case e.dirEnts != nil:
			held += proto.DirSize(e.dirEnts)
		case e.cacheFile != "":
			st, err := v.cfg.Local.Stat(e.cacheFile)
			if err != nil {
				v.mu.Unlock()
				t.Fatal(err)
			}
			held += st.Size
		}
	}
	v.mu.Unlock()
	if _, bytes := v.CacheUsage(); bytes != held {
		t.Fatalf("%s the cache counts %d bytes, and holds %d", when, bytes, held)
	}
	for _, dir := range dirs {
		data, err := v.ReadFile(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		read, err := proto.Unmarshal(data, proto.DecodeDirEntries)
		if err != nil {
			t.Fatal(err)
		}
		listed, err := v.ReadDir(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(read, listed) {
			t.Fatalf("%s an open of %s reads %+v, ReadDir lists %+v", when, dir, read, listed)
		}
	}
	if _, bytes := v.CacheUsage(); len(dirs) > 0 && bytes != cachedFileBytes(t, v) {
		t.Fatalf("%s, once its directories were read, the cache counts %d bytes, its files hold %d", when, bytes, cachedFileBytes(t, v))
	}
}

// TestSetModeOnAStaleCopy: a chmod's reply is the file's status as the
// custodian holds it. When another workstation has stored since this one
// cached the file, that status describes bytes this cache does not hold:
// adopting it let check-on-open validate the stale copy, and put the byte
// count out of step with the cache files.
func TestSetModeOnAStaleCopy(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("proj", "/proj", "satya", 0)
			op := c.newVenus("s0", "operator", nil)
			acl := prot.NewACL()
			acl.Grant("satya", prot.RightsAll)
			acl.Grant("howard", prot.RightsAll)
			if err := op.SetACL(nil, "/proj", proto.ACLEncode(acl)); err != nil {
				t.Fatal(err)
			}
			a := c.newVenus("s0", "satya", nil)
			b := c.newVenus("s0", "howard", nil)
			writeFile(t, a, "/proj/f", "v1")
			if got := readFile(t, a, "/proj/f"); got != "v1" {
				t.Fatalf("a reads %q", got)
			}
			writeFile(t, b, "/proj/f", "version-two")
			if err := a.SetMode(nil, "/proj/f", 0o600); err != nil {
				t.Fatal(err)
			}
			checkCacheBytes(t, a, "after chmod")
			if got := readFile(t, a, "/proj/f"); got != "version-two" {
				t.Fatalf("after chmod a reads %q, want the other workstation's store", got)
			}
			checkCacheBytes(t, a, "after the read", "/proj")
			// With no store in between the chmod's status is adopted: the
			// next open is a hit.
			if err := a.SetMode(nil, "/proj/f", 0o644); err != nil {
				t.Fatal(err)
			}
			fetches := a.Stats().Fetches
			if got := readFile(t, a, "/proj/f"); got != "version-two" || a.Stats().Fetches != fetches {
				t.Fatalf("after a lone chmod a reads %q with %d fetches", got, a.Stats().Fetches-fetches)
			}
		})
	}
}

func TestReadDirAndMkdirRemove(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("u", "/u", "satya", 0)
			v := c.newVenus("s0", "satya", nil)
			if err := v.Mkdir(nil, "/u/src", 0o755); err != nil {
				t.Fatal(err)
			}
			writeFile(t, v, "/u/src/a.c", "a")
			writeFile(t, v, "/u/src/b.c", "b")
			entries, err := v.ReadDir(nil, "/u/src")
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 2 || entries[0].Name != "a.c" || entries[1].Name != "b.c" {
				t.Fatalf("entries = %+v", entries)
			}
			if err := v.Remove(nil, "/u/src/a.c"); err != nil {
				t.Fatal(err)
			}
			entries, _ = v.ReadDir(nil, "/u/src")
			if len(entries) != 1 {
				t.Fatalf("after remove: %+v", entries)
			}
			if err := v.Remove(nil, "/u/src/b.c"); err != nil {
				t.Fatal(err)
			}
			if err := v.RemoveDir(nil, "/u/src"); err != nil {
				t.Fatal(err)
			}
			if _, err := v.Stat(nil, "/u/src"); !errors.Is(err, proto.ErrNoEnt) {
				t.Fatalf("stat removed dir: %v", err)
			}
		})
	}
}

func TestRenameThroughVenus(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("u", "/u", "satya", 0)
			v := c.newVenus("s0", "satya", nil)
			writeFile(t, v, "/u/old", "payload")
			if err := v.Rename(nil, "/u/old", "/u/new"); err != nil {
				t.Fatal(err)
			}
			if got := readFile(t, v, "/u/new"); got != "payload" {
				t.Fatalf("renamed contents = %q", got)
			}
			if _, err := v.Stat(nil, "/u/old"); !errors.Is(err, proto.ErrNoEnt) {
				t.Fatalf("old name: %v", err)
			}
		})
	}
}

func TestSymlinkResolutionClientSide(t *testing.T) {
	c := newTestCell(t, vice.Revised, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	writeFile(t, v, "/u/real", "the real file")
	if err := v.Symlink(nil, "/u/real", "/u/alias"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, v, "/u/alias"); got != "the real file" {
		t.Fatalf("through symlink: %q", got)
	}
}

func TestAccessDeniedSurfaces(t *testing.T) {
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	op := c.newVenus("s0", "operator", nil)
	acl := prot.NewACL()
	acl.Grant("satya", prot.RightsAll)
	if err := op.SetACL(nil, "/u", proto.ACLEncode(acl)); err != nil {
		t.Fatal(err)
	}
	v := c.newVenus("s0", "satya", nil)
	writeFile(t, v, "/u/private", "secret")
	h := c.newVenus("s0", "howard", nil)
	if _, err := h.Open(nil, "/u/private", FlagRead); !errors.Is(err, proto.ErrAccess) {
		t.Fatalf("err = %v, want ErrAccess", err)
	}
}

func TestMobilityAcrossClusters(t *testing.T) {
	// A user moves to a workstation homed on a different server. The cache
	// warms up there and files remain reachable — the custodian did not
	// change, only the access point (§3.1, §3.2).
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0", "s1")
			c.mkVolume("u.satya", "/usr/satya", "satya", 0)
			home := c.newVenus("s0", "satya", nil)
			writeFile(t, home, "/usr/satya/thesis", "draft 1")
			// Same user at a workstation in cluster 1.
			away := c.newVenus("s1", "satya", nil)
			if got := readFile(t, away, "/usr/satya/thesis"); got != "draft 1" {
				t.Fatalf("remote read %q", got)
			}
			writeFile(t, away, "/usr/satya/thesis", "draft 2")
			if got := readFile(t, home, "/usr/satya/thesis"); got != "draft 2" {
				t.Fatalf("home re-read %q", got)
			}
		})
	}
}

func TestRedirectAfterVolumeMove(t *testing.T) {
	c := newTestCell(t, vice.Prototype, "s0", "s1")
	vid := c.mkVolume("u.satya", "/usr/satya", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	writeFile(t, v, "/usr/satya/f", "before move")
	// Move the volume to s1 behind Venus's back.
	op := c.newVenus("s0", "operator", nil)
	resp, err := op.callRef(nil, proto.Ref{Path: "/"}, "/",
		newRequest(proto.OpVolMove, proto.VolMoveArgs{Volume: vid, Target: "s1"}))
	if err != nil || !resp.OK() {
		t.Fatalf("move: %v %d %s", err, resp.Code, resp.Body)
	}
	// Venus still holds a hint pointing at s0; the wrong-server redirect
	// must carry it to s1 transparently. Force a fetch by dropping cache.
	v2 := c.newVenus("s0", "satya", nil)
	if got := readFile(t, v2, "/usr/satya/f"); got != "before move" {
		t.Fatalf("after move: %q", got)
	}
	// And the original Venus (with the stale connection hint) also works.
	writeFile(t, v, "/usr/satya/f", "after move")
	if got := readFile(t, v2, "/usr/satya/f"); got != "after move" {
		t.Fatalf("stale-hint write+read: %q", got)
	}
}

func TestDirtyFilesNeverEvicted(t *testing.T) {
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", func(cfg *Config) { cfg.MaxFiles = 2 })
	h, err := v.Open(nil, "/u/dirty", FlagWrite|FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("unsaved")); err != nil {
		t.Fatal(err)
	}
	// Churn the cache past its limit.
	for i := 0; i < 5; i++ {
		writeFile(t, v, fmt.Sprintf("/u/churn%d", i), "x")
	}
	// The dirty handle still works and stores correctly at close.
	if err := h.Close(nil); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, v, "/u/dirty"); got != "unsaved" {
		t.Fatalf("dirty data lost: %q", got)
	}
}

func TestWriteWithoutWriteFlagRefused(t *testing.T) {
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	writeFile(t, v, "/u/f", "x")
	h, err := v.Open(nil, "/u/f", FlagRead)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close(nil)
	if _, err := h.Write([]byte("y")); !errors.Is(err, proto.ErrAccess) {
		t.Fatalf("err = %v", err)
	}
}

func TestSeekAndSequentialRead(t *testing.T) {
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	writeFile(t, v, "/u/f", "0123456789")
	h, err := v.Open(nil, "/u/f", FlagRead)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close(nil)
	buf := make([]byte, 4)
	n, _ := h.Read(buf)
	if string(buf[:n]) != "0123" {
		t.Fatalf("first read %q", buf[:n])
	}
	n, _ = h.Read(buf)
	if string(buf[:n]) != "4567" {
		t.Fatalf("second read %q", buf[:n])
	}
	if _, err := h.Seek(1, 0); err != nil {
		t.Fatal(err)
	}
	n, _ = h.Read(buf)
	if string(buf[:n]) != "1234" {
		t.Fatalf("after seek %q", buf[:n])
	}
	if off, _ := h.Seek(-2, 2); off != 8 {
		t.Fatalf("seek end = %d", off)
	}
}

func TestLocksThroughVenus(t *testing.T) {
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	op := c.newVenus("s0", "operator", nil)
	acl := prot.NewACL()
	acl.Grant("satya", prot.RightsAll)
	acl.Grant("howard", prot.RightsAll)
	if err := op.SetACL(nil, "/u", proto.ACLEncode(acl)); err != nil {
		t.Fatal(err)
	}
	vs := c.newVenus("s0", "satya", nil)
	vh := c.newVenus("s0", "howard", nil)
	writeFile(t, vs, "/u/f", "x")
	if err := vs.Lock(nil, "/u/f", true); err != nil {
		t.Fatal(err)
	}
	if err := vh.Lock(nil, "/u/f", false); !errors.Is(err, proto.ErrLocked) {
		t.Fatalf("err = %v, want ErrLocked", err)
	}
	if err := vs.Unlock(nil, "/u/f"); err != nil {
		t.Fatal(err)
	}
	if err := vh.Lock(nil, "/u/f", false); err != nil {
		t.Fatal(err)
	}
}
