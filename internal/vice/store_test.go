package vice

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
	"itcfs/internal/trace"
	"itcfs/internal/volume"
)

// durableServer is one server with a store attached, booted as itcfsd boots
// one.
type durableServer struct {
	srv     *Server
	flight  *trace.Recorder
	metrics *trace.Registry
	report  *store.Report
}

func newDurableServer(t *testing.T, st store.Store) *durableServer {
	t.Helper()
	var clock int64
	var vclock sim.Time
	d := &durableServer{
		metrics: trace.NewRegistry(),
		flight:  trace.NewRecorder(256, func() sim.Time { vclock++; return vclock }),
	}
	srv, rep, err := Boot(Config{
		Name:    "server0",
		Mode:    Revised,
		DB:      usersDB(t, "satya"),
		Clock:   func() int64 { clock++; return clock },
		Metrics: d.metrics,
		Flight:  d.flight,
		Store:   st,
	}, "pw")
	if err != nil {
		t.Fatal(err)
	}
	d.srv, d.report = srv, rep
	return d
}

func (d *durableServer) call(t *testing.T, user string, op uint16, body, bulk []byte) []byte {
	t.Helper()
	// Every caller gives body and bulk up, as a carrier hands a received
	// frame over: a store keeps its Bulk as it stands.
	resp := d.srv.Dispatcher().Dispatch(rpc.Ctx{User: user},
		rpc.Request{Op: rpc.Op(op), Body: body, Bulk: bulk, Owned: true})
	if !resp.OK() {
		t.Fatalf("op %d failed: code %d: %s", op, resp.Code, resp.Body)
	}
	// Released as a carrier releases a reply once it is sealed. A handler's
	// Bulk lies in no pooled buffer, so it outlives the release.
	kept := resp.Bulk
	resp.Release()
	return kept
}

// TestStorePersistAcrossServerRestart is the vice-level crash test: run a
// workload against one server, abandon it without any clean shutdown (its
// checkpoint never runs), and bring up a second server over the same disk
// bytes. Everything acknowledged — files, directories, the location entry,
// a protection mutation — must be there, and the salvage report must reach
// the flight recorder and the metrics registry.
func TestStorePersistAcrossServerRestart(t *testing.T) {
	fsys := store.NewMemFS()
	ws, err := walstore.Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	d1 := newDurableServer(t, ws)

	d1.call(t, "operator", proto.OpMakeDir,
		proto.Marshal(proto.NameArgs{Dir: pathRef("/"), Name: "d", Mode: 0o755}), nil)
	d1.call(t, "operator", proto.OpCreate,
		proto.Marshal(proto.NameArgs{Dir: pathRef("/d"), Name: "f", Mode: 0o644}), nil)
	d1.call(t, "operator", proto.OpStore,
		proto.Marshal(proto.StoreArgs{Ref: pathRef("/d/f")}), []byte("durable bytes"))
	d1.call(t, "operator", proto.OpProtMutate,
		proto.Marshal(prot.Mutation{Kind: prot.MutAddUser, Name: "bovik"}), nil)

	// No checkpoint, no close: the second open replays the log.
	ws2, err := walstore.Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	d2 := newDurableServer(t, ws2)
	if d2.report == nil || d2.report.Replayed == 0 {
		t.Fatalf("nothing replayed: %+v", d2.report)
	}

	got := d2.call(t, "operator", proto.OpFetch,
		proto.Marshal(proto.FetchArgs{Ref: pathRef("/d/f")}), nil)
	if string(got) != "durable bytes" {
		t.Fatalf("fetched %q", got)
	}
	if _, ok := d2.srv.cfg.DB.LookupKey("bovik"); !ok {
		t.Fatal("protection mutation lost")
	}
	if _, ok := d2.srv.Loc().Resolve("/d/f"); !ok {
		t.Fatal("location entry lost")
	}

	var fl bytes.Buffer
	d2.flight.WriteText(&fl)
	if !strings.Contains(fl.String(), "vice.salvage") {
		t.Fatalf("no vice.salvage flight event:\n%s", fl.String())
	}
	var mt bytes.Buffer
	d2.metrics.WriteText(&mt)
	if !strings.Contains(mt.String(), "vice.salvage.replayed") {
		t.Fatalf("no vice.salvage.replayed metric:\n%s", mt.String())
	}

	// RecoverStore checkpointed: the log is compacted back to its header.
	wal, err := fsys.ReadFile("wal.log")
	if err != nil || len(wal) != 8 {
		t.Fatalf("log not compacted after recovery: %d bytes, %v", len(wal), err)
	}
}

// hookStore wraps a store so a test can interleave work at the exact point
// attachVolume calls Sync — outside the gate, where the periodic checkpointer
// can preempt a volume create.
type hookStore struct {
	store.Store
	onSync func()
}

func (h *hookStore) Sync() error {
	if fn := h.onSync; fn != nil {
		h.onSync = nil
		fn()
	}
	return h.Store.Sync()
}

// TestAttachVolumeVsCheckpoint pins the attach/checkpoint interleaving: a
// checkpoint running between a volume's BeginVolume journal append and its
// Sync must still include the volume. If it snapshots without it, the
// checkpoint truncates the log past the BeginVolume record and the acked
// create silently vanishes on restart.
func TestAttachVolumeVsCheckpoint(t *testing.T) {
	fsys := store.NewMemFS()
	ws, err := walstore.Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	hs := &hookStore{Store: ws}
	d := newDurableServer(t, hs)

	hs.onSync = func() {
		if err := d.srv.CheckpointStore(); err != nil {
			t.Errorf("checkpoint during attach: %v", err)
		}
	}
	acl := prot.NewACL()
	acl.Grant("operator", prot.RightsAll)
	var clock int64
	v := volume.New(7, "vol7", acl, 0, "operator", func() int64 { clock++; return clock })
	if err := d.srv.AddVolume(v); err != nil {
		t.Fatalf("AddVolume: %v", err)
	}

	// Abandon without clean shutdown: the acked create must survive the
	// checkpoint that ran mid-attach.
	ws2, err := walstore.Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ws2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range rec.Volumes {
		if rv.ID() == 7 {
			return
		}
	}
	t.Fatalf("acked volume create lost: recovered %d volumes, none with ID 7", len(rec.Volumes))
}

// TestStoreFailureSurfacesAndUnackedWriteStaysVolatile: once the disk dies,
// mutations fail with an internal error, and a restart from what stable
// storage holds serves only the acknowledged history — the failed write
// never becomes durable.
func TestStoreFailureSurfacesAndUnackedWriteStaysVolatile(t *testing.T) {
	// The acknowledged history, on a disk that dies at crashAt.
	acked := func(crashAt int) (*store.FaultFS, *durableServer) {
		f := store.NewFaultFS(1, crashAt)
		f.Strict = true
		ws, err := walstore.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		d := newDurableServer(t, ws)
		d.call(t, "operator", proto.OpCreate,
			proto.Marshal(proto.NameArgs{Dir: pathRef("/"), Name: "f", Mode: 0o644}), nil)
		d.call(t, "operator", proto.OpStore,
			proto.Marshal(proto.StoreArgs{Ref: pathRef("/f")}), []byte("before"))
		return f, d
	}
	// Count the durability events that history takes, then replay it on a
	// disk that dies at the next one: the next mutation's.
	counted, _ := acked(0)
	f, d := acked(counted.Events() + 1)

	resp := d.srv.Dispatcher().Dispatch(rpc.Ctx{User: "operator"},
		rpc.Request{Op: rpc.Op(proto.OpStore),
			Body: proto.Marshal(proto.StoreArgs{Ref: pathRef("/f")}), Bulk: []byte("after")})
	if resp.OK() || resp.Code != proto.CodeInternal {
		t.Fatalf("store mutation with dead disk: code %d", resp.Code)
	}

	// Restart from the survivors: the error'd write must not have made it.
	ws2, err := walstore.Open(f.Survivors())
	if err != nil {
		t.Fatal(err)
	}
	d2 := newDurableServer(t, ws2)
	got := d2.call(t, "operator", proto.OpFetch,
		proto.Marshal(proto.FetchArgs{Ref: pathRef("/f")}), nil)
	if string(got) != "before" {
		t.Fatalf("recovered contents = %q, want the acked %q", got, "before")
	}
}

// syncFailFS delegates to an in-memory FS but, once armed, fails every fsync
// on the log. Appends keep succeeding — the record reaches the OS buffer,
// the flush dies — which is exactly the ordering where a positive ack would
// be a lie.
type syncFailFS struct {
	store.FS
	mu    sync.Mutex
	armed bool // guarded by mu
}

var errInjectedFsync = errors.New("injected fsync failure")

func (s *syncFailFS) arm(on bool) {
	s.mu.Lock()
	s.armed = on
	s.mu.Unlock()
}

func (s *syncFailFS) Open(name string) (store.File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &syncFailFile{File: f, fs: s}, nil
}

type syncFailFile struct {
	store.File
	fs *syncFailFS
}

func (f *syncFailFile) Sync() error {
	f.fs.mu.Lock()
	armed := f.fs.armed
	f.fs.mu.Unlock()
	if armed {
		return errInjectedFsync
	}
	return f.File.Sync()
}

// TestSyncFailureLatchesAcrossMutatePaths pins walstore's latch discipline as
// seen through the vice mutate paths: the mutation whose fsync failed is
// refused (a failed Sync is never followed by a positive ack), and the latch
// makes every later mutation — volume writes, creates, location installs,
// protection changes — keep failing even after the disk "recovers", because
// the store cannot know how much of its buffered tail actually survived.
// Reads keep working: the server degrades to read-only, not to dead.
func TestSyncFailureLatchesAcrossMutatePaths(t *testing.T) {
	fsys := &syncFailFS{FS: store.NewMemFS()}
	ws, err := walstore.Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	d := newDurableServer(t, ws)
	d.call(t, "operator", proto.OpCreate,
		proto.Marshal(proto.NameArgs{Dir: pathRef("/"), Name: "f", Mode: 0o644}), nil)
	d.call(t, "operator", proto.OpStore,
		proto.Marshal(proto.StoreArgs{Ref: pathRef("/f")}), []byte("before"))
	d.call(t, "operator", proto.OpCreate,
		proto.Marshal(proto.NameArgs{Dir: pathRef("/"), Name: "r", Mode: 0o644}), nil)
	d.call(t, "operator", proto.OpStore,
		proto.Marshal(proto.StoreArgs{Ref: pathRef("/r")}), []byte("stable"))

	// The append succeeds, the fsync fails: no ack.
	fsys.arm(true)
	resp := d.srv.Dispatcher().Dispatch(rpc.Ctx{User: "operator"},
		rpc.Request{Op: rpc.Op(proto.OpStore),
			Body: proto.Marshal(proto.StoreArgs{Ref: pathRef("/f")}), Bulk: []byte("after")})
	if resp.OK() || resp.Code != proto.CodeInternal {
		t.Fatalf("store with failing fsync: code %d, want internal error", resp.Code)
	}

	// The disk comes back, but the store has latched: it cannot tell which of
	// its buffered records reached the platter, so nothing after the failure
	// may be acknowledged either.
	fsys.arm(false)
	mutations := []struct {
		name string
		op   uint16
		body []byte
		bulk []byte
	}{
		{"store", proto.OpStore, proto.Marshal(proto.StoreArgs{Ref: pathRef("/f")}), []byte("later")},
		{"create", proto.OpCreate, proto.Marshal(proto.NameArgs{Dir: pathRef("/"), Name: "g", Mode: 0o644}), nil},
	}
	for _, m := range mutations {
		resp := d.srv.Dispatcher().Dispatch(rpc.Ctx{User: "operator"},
			rpc.Request{Op: rpc.Op(m.op), Body: m.body, Bulk: m.bulk})
		if resp.OK() || resp.Code != proto.CodeInternal {
			t.Fatalf("%s after latched fsync failure: code %d, want internal error", m.name, resp.Code)
		}
	}
	if err := d.srv.InstallLoc([]proto.LocEntry{{Prefix: "/x", Volume: 2, Custodian: "server0"}}, nil); err == nil {
		t.Fatal("InstallLoc after latched fsync failure succeeded")
	}

	// Read-only service continues: a file no failed write touched still
	// serves its acked contents. (Files the refused writes did touch may show
	// the in-memory effect — the server is read-only until restarted, and a
	// restart replays only what stable storage holds.)
	got := d.call(t, "operator", proto.OpFetch,
		proto.Marshal(proto.FetchArgs{Ref: pathRef("/r")}), nil)
	if string(got) != "stable" {
		t.Fatalf("read after latch = %q, want the acked %q", got, "stable")
	}
}

// bigFiles returns n different files of 60 MiB. They are views of one
// buffer, which a server keeps as it stands (durableServer.call hands each
// store's Bulk over), so the test holds about one file's worth of memory for
// all of them.
func bigFiles(n int) [][]byte {
	const size = 60 << 20
	buf := make([]byte, size+n*4096)
	x := uint64(1)
	for i := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = byte(x >> 56)
	}
	files := make([][]byte, n)
	for i := range files {
		files[i] = buf[i*4096 : i*4096+size]
	}
	return files
}

// storeBig gives d one volume per entry of vols, volume 10 first, mounted at
// /v<id>, and stores the entry's files in it as /v<id>/f0, /v<id>/f1, ...
func storeBig(t *testing.T, d *durableServer, vols [][][]byte) {
	t.Helper()
	acl := prot.NewACL()
	acl.Grant("operator", prot.RightsAll)
	var clock int64
	for i, files := range vols {
		id := uint32(10 + i)
		if err := d.srv.AddVolume(volume.New(id, fmt.Sprintf("v%d", id), acl, 0, "operator", func() int64 { clock++; return clock })); err != nil {
			t.Fatal(err)
		}
		if err := d.srv.InstallLoc([]proto.LocEntry{{Prefix: fmt.Sprintf("/v%d", id), Volume: id, Custodian: "server0"}}, nil); err != nil {
			t.Fatal(err)
		}
		for i, data := range files {
			dir, name := fmt.Sprintf("/v%d", id), fmt.Sprintf("f%d", i)
			d.call(t, "operator", proto.OpCreate, proto.Marshal(proto.NameArgs{Dir: pathRef(dir), Name: name, Mode: 0o644}), nil)
			d.call(t, "operator", proto.OpStore, proto.Marshal(proto.StoreArgs{Ref: pathRef(dir + "/" + name)}), data)
		}
	}
}

// fetchBig reads every file storeBig stored back from d.
func fetchBig(t *testing.T, d *durableServer, vols [][][]byte) {
	t.Helper()
	for v, files := range vols {
		for i, want := range files {
			path := fmt.Sprintf("/v%d/f%d", 10+v, i)
			if got := d.call(t, "operator", proto.OpFetch, proto.Marshal(proto.FetchArgs{Ref: pathRef(path)}), nil); !bytes.Equal(got, want) {
				t.Fatalf("%s came back as %d bytes that differ from the %d stored", path, len(got), len(want))
			}
		}
	}
}

// TestRestartWithVolumesPast256MiB: five volumes of one 60 MiB file each,
// 300 MiB together, checkpoint and restart, and every file reads back. A
// checkpoint's bound is the log's, per record; it was once the whole
// checkpoint's, so every checkpoint here failed, the restart's too.
func TestRestartWithVolumesPast256MiB(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("holds about 1 GiB")
	}
	var vols [][][]byte
	for _, f := range bigFiles(5) {
		vols = append(vols, [][]byte{f})
	}
	fsys := store.DirFS(t.TempDir()) // the files' bytes stay out of the heap
	ws, err := walstore.Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	d1 := newDurableServer(t, ws)
	storeBig(t, d1, vols)
	if err := d1.srv.CheckpointStore(); err != nil {
		t.Fatalf("checkpoint of five 60 MiB volumes: %v", err)
	}
	ws.Close()

	ws2, err := walstore.Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	d2 := newDurableServer(t, ws2)
	if d2.report.CheckpointSeq == 0 || len(d2.report.Notes) != 0 {
		t.Fatalf("restart: %v", d2.report.Lines())
	}
	fetchBig(t, d2, vols)
}

// TestRestartWithAVolumeOver256MiB: a volume built by five 60 MiB stores has
// a checkpoint record recovery would not read back. The store refuses that
// compaction, which writes nothing, so the server restarts from its log and
// serves, with a note in its report and its flight recorder.
func TestRestartWithAVolumeOver256MiB(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("holds about 1 GiB")
	}
	vols := [][][]byte{bigFiles(5)}
	fsys := store.DirFS(t.TempDir()) // the files' bytes stay out of the heap
	ws, err := walstore.Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	d1 := newDurableServer(t, ws)
	storeBig(t, d1, vols)
	if err := d1.srv.CheckpointStore(); !errors.Is(err, store.ErrTooLarge) {
		t.Fatalf("checkpoint of a 300 MiB volume: err %v, want store.ErrTooLarge", err)
	}
	ws.Close()

	ws2, err := walstore.Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	d2 := newDurableServer(t, ws2)
	var noted []string
	for _, n := range d2.report.Notes {
		if strings.HasPrefix(n, "log not compacted: ") {
			noted = append(noted, n)
		}
	}
	if len(noted) != 1 || d2.report.Replayed == 0 {
		t.Fatalf("restart: %v", d2.report.Lines())
	}
	var fl bytes.Buffer
	d2.flight.WriteText(&fl)
	if !strings.Contains(fl.String(), "note: "+noted[0]) {
		t.Fatalf("the note is not in the flight recorder:\n%s", fl.String())
	}
	fetchBig(t, d2, vols)
}
