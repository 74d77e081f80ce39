package itcfs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
	"itcfs/internal/vice"
	"itcfs/internal/volume"
)

// The gate test: Vice serves a cell, not a client. Eight workstations on
// eight connections work in two directories of ONE volume at once — the
// traffic vice.Server's gate exists for, which the simulator never produces
// (its processes are the paper's LWPs) and no other test does. Each station
// owns a few files it alone stores, renames and removes, so what must be
// true of them is known exactly; everybody lists both directories and reads
// everybody's files, so every mutation breaks somebody's promise. Afterwards:
// (i) every station, through the cache it ended with, reads the server's
// bytes of every surviving file — a stale copy still marked valid fails
// here; (ii) so does a station that was never connected; (iii) the log is
// cut at a seeded record boundary, and at a torn tail, the server booted
// again on it, and every change acknowledged before the cut is there and
// salvage finds nothing to repair; (iv) group commit fired: fewer fsyncs
// than journal appends. A server with no store passes (i) and (ii) too.

const (
	gateStations = 8
	gateFiles    = 5 // owned by each station
	gateDir      = "/usr/satya/gate"
	gateSub      = gateDir + "/sub"
	gateLog      = "wal.log" // walstore's name for its log
)

func TestGate(t *testing.T) {
	full, bare := 3500*time.Millisecond, 1500*time.Millisecond
	if testing.Short() {
		full, bare = 700*time.Millisecond, 300*time.Millisecond
	}
	for _, mode := range []Mode{Prototype, Revised} {
		t.Run(mode.String()+"/walstore", func(t *testing.T) { runGate(t, mode, t.TempDir(), full) })
		t.Run(mode.String()+"/volatile", func(t *testing.T) { runGate(t, mode, "", bare) })
	}
}

func runGate(t *testing.T, mode Mode, dir string, d time.Duration) {
	cfg := vice.Config{Name: "server0", Mode: mode}
	var log *logFS
	var ws *walstore.Store
	if dir != "" {
		var err error
		log = &logFS{FS: store.DirFS(dir)}
		if ws, err = walstore.Open(log); err != nil {
			t.Fatal(err)
		}
		cfg.Store = ws
	}
	c := bootRealCell(t, cfg, "satya")
	stations := make([]*gateStation, gateStations)
	for i := range stations {
		stations[i] = &gateStation{realStation: c.station(t, mode, "satya"), id: i, r: rand.New(rand.NewSource(int64(1985 + i))), log: log}
	}
	if err := stations[0].Mkdir(nil, "/vice"+gateDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := stations[0].Mkdir(nil, "/vice"+gateSub, 0o755); err != nil {
		t.Fatal(err)
	}
	appends0, fsyncs0 := log.counts()

	deadline := time.Now().Add(d) //itcvet:allow wallclock -- the gate test runs real goroutines for a real interval
	var wg sync.WaitGroup
	for _, st := range stations {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; !t.Failed() && time.Now().Before(deadline); n++ { //itcvet:allow wallclock -- as above
				st.step(t, n)
			}
		}()
	}
	wg.Wait()
	ops := 0
	for _, st := range stations {
		ops += st.ops
	}
	t.Logf("%d stations, %d operations in %v", gateStations, ops, d)
	if t.Failed() {
		return
	}

	// (i) and (ii): the caches the stations ended with, and one that is empty.
	for _, reader := range append(stations, &gateStation{realStation: c.station(t, mode, "satya"), id: -1}) {
		for _, owner := range stations {
			for _, want := range owner.files {
				if want.path == "" {
					continue
				}
				got, err := reader.ReadFile(nil, "/vice"+want.path)
				if err != nil {
					t.Errorf("station %d: %s: %v", reader.id, want.path, err)
				} else if string(got) != want.content {
					t.Errorf("station %d reads a stale %s: %q, the server has %q", reader.id, want.path, gateHead(string(got)), gateHead(want.content))
				}
				if _, err := reader.ReadFile(nil, "/vice"+gateTwin(want.path)); err == nil {
					t.Errorf("station %d reads %s, which its owner renamed", reader.id, gateTwin(want.path))
				}
			}
		}
	}
	if ws == nil || t.Failed() {
		return
	}

	// (iv) Eight committers share fsyncs.
	appends, fsyncs := log.counts()
	appends, fsyncs = appends-appends0, fsyncs-fsyncs0
	t.Logf("%d journal appends, %d fsyncs: %.2f fsyncs per append", appends, fsyncs, float64(fsyncs)/float64(appends))
	if fsyncs >= appends {
		t.Errorf("group commit never fired: %d fsyncs for %d appends", fsyncs, appends)
	}

	// (iii) The crash: nothing more reaches the log, which is then cut twice —
	// at a record boundary on a copy, and in the middle of a record where it
	// lies.
	for _, st := range stations {
		st.hangUp()
	}
	ws.Close()
	log.mu.Lock()
	ends := log.ends
	log.mu.Unlock()
	if len(ends) < 8 {
		t.Fatalf("only %d records were journalled", len(ends))
	}
	r := rand.New(rand.NewSource(1985))
	pick := func() int { return len(ends)/2 + r.Intn(len(ends)/2-1) }
	clean := t.TempDir()
	for _, name := range []string{gateLog, "checkpoint"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(clean, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	k := pick()
	gateRecover(t, mode, clean, ends[k], ends[k], stations)
	k = pick()
	gateRecover(t, mode, dir, (ends[k]+ends[k+1])/2, ends[k], stations)
}

// gateRecover cuts the log in dir to size bytes, boots a server on it and
// holds it to every change acknowledged when the log was durable bytes long.
func gateRecover(t *testing.T, mode Mode, dir string, size, durable int64, stations []*gateStation) {
	t.Helper()
	if err := os.Truncate(filepath.Join(dir, gateLog), size); err != nil {
		t.Fatal(err)
	}
	ws, err := walstore.Open(store.DirFS(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	srv, rep, err := vice.Boot(vice.Config{Name: "server0", Mode: mode, Store: ws}, "secret")
	if err != nil {
		t.Fatal(err)
	}
	if torn := size != durable; torn != (rep.DiscardedBytes > 0) {
		t.Errorf("log cut to %d bytes (last whole record ends at %d): recovery discarded %d bytes", size, durable, rep.DiscardedBytes)
	}
	for _, vr := range rep.Volumes {
		if vr.Salvage != (volume.SalvageReport{}) {
			t.Errorf("recovery had to repair volume %d: %+v", vr.ID, vr.Salvage)
		}
	}
	for id, sr := range srv.SalvageAll() {
		if sr != (volume.SalvageReport{}) {
			t.Errorf("salvage after recovery repaired volume %d: %+v", id, sr)
		}
	}
	for _, st := range stations {
		for f := range st.files {
			// The owner's changes to a file reached the log in the order it
			// made them, so the cut holds a prefix of them — at least every
			// one acknowledged while the log was no longer than the cut.
			allowed, last := []gateFile{{}}, gateFile{}
			paths := map[string]bool{}
			for _, a := range st.acks {
				if a.file != f {
					continue
				}
				if a.durable <= durable {
					allowed = allowed[:0]
				}
				if last.path == "" {
					allowed = append(allowed, gateFile{path: a.state.path}) // created, not yet stored
				}
				allowed = append(allowed, a.state)
				last = a.state
				paths[a.state.path] = true
			}
			var got gateFile
			for path := range paths {
				resp := srv.Dispatcher().Dispatch(rpc.Ctx{User: "operator"}, rpc.Request{
					Op: rpc.Op(proto.OpFetch), Body: proto.Marshal(proto.FetchArgs{Ref: proto.Ref{Path: path}}),
				})
				if resp.OK() && got.path != "" {
					t.Errorf("after recovery station %d's file %d is at %s and at %s", st.id, f, got.path, path)
				} else if resp.OK() {
					got = gateFile{path, string(resp.Bulk)}
				}
			}
			found := false
			for _, a := range allowed {
				found = found || a == got
			}
			if !found {
				t.Errorf("after recovery at %d bytes: station %d's file %d is %q at %q; acknowledged by then: %q at %q",
					durable, st.id, f, gateHead(got.content), got.path, gateHead(allowed[0].content), allowed[0].path)
			}
		}
	}
}

// gateFile is where one file is and what it holds; the zero value is a file
// that is not there.
type gateFile struct{ path, content string }

// gateAck is one acknowledged change: the owner's file, what the change
// left, and how much of the log was durable once the reply had arrived —
// the change's record lies within that.
type gateAck struct {
	file    int
	state   gateFile
	durable int64
}

type gateStation struct {
	realStation
	id    int
	r     *rand.Rand
	log   *logFS
	ops   int
	files [gateFiles]gateFile // what this station last did to each file it owns
	born  [gateFiles]int      // how many times each has been created
	vers  [gateFiles]int      // and stored
	acks  []gateAck
	seen  []string // the paths last listed, anyone's
}

// gateName names a station's file in its nth incarnation. A removed file
// comes back under a new name: the prototype validates a cached copy by
// path and per-vnode version, so a new vnode at an old path can pass for the
// copy of the old one once it reaches the same version (a weakness of that
// protocol as implemented, with or without concurrency; not this test's).
func gateName(station, file, n int) string { return fmt.Sprintf("s%d-f%d-%d", station, file, n) }

// gateTwin is path's name in the other directory.
func gateTwin(path string) string {
	if name, ok := strings.CutPrefix(path, gateSub+"/"); ok {
		return gateDir + "/" + name
	}
	return gateSub + "/" + strings.TrimPrefix(path, gateDir+"/")
}

// gateContent is version v of the file called name: a first line saying so,
// then filler that depends on the line, so that any mixture of two versions
// shows.
func gateContent(name string, v int) string {
	head := fmt.Sprintf("%s v%d\n", name, v)
	n := 64 + len(name)*131 + v*17%6000
	var b strings.Builder
	for b.Len() < n {
		b.WriteString(head)
	}
	return b.String()
}

func gateHead(content string) string {
	head, _, _ := strings.Cut(content, "\n")
	return head
}

// gateWellFormed reports whether content is some whole version of the file
// called name, or nothing yet: a new file is created, then stored.
func gateWellFormed(name, content string) bool {
	if content == "" {
		return true
	}
	var v int
	if n, _ := fmt.Sscanf(strings.TrimPrefix(content, name), " v%d\n", &v); n != 1 {
		return false
	}
	return gateContent(name, v) == content
}

// step is one operation of the seeded mix.
func (st *gateStation) step(t *testing.T, n int) {
	st.ops++
	f := st.r.Intn(gateFiles)
	cur := st.files[f]
	fail := func(what string, err error) {
		t.Errorf("station %d, operation %d: %s: %v", st.id, n, what, err)
	}
	switch roll := st.r.Intn(100); {
	case n%25 == 7: // the directory's access list, rewritten as it is
		acl, err := st.Venus().GetACL(nil, gateDir)
		if err == nil {
			err = st.Venus().SetACL(nil, gateDir, acl)
		}
		if err != nil {
			fail("set ACL", err)
		}
	case n%25 == 19 && cur.path != "": // an advisory lock nobody contends for
		if err := st.Venus().Lock(nil, cur.path, true); err != nil {
			fail("lock "+cur.path, err)
		} else if err := st.Venus().Unlock(nil, cur.path); err != nil {
			fail("unlock "+cur.path, err)
		}
	case roll < 35: // create or overwrite
		if cur.path == "" {
			st.born[f]++
			cur.path = gateDir + "/" + gateName(st.id, f, st.born[f])
		}
		st.vers[f]++
		cur.content = gateContent(filepath.Base(cur.path), st.vers[f])
		if err := st.WriteFile(nil, "/vice"+cur.path, []byte(cur.content)); err != nil {
			fail("store "+cur.path, err)
			return
		}
		st.did(f, cur)
	case roll < 50 && cur.path != "": // rename across the two directories
		to := gateTwin(cur.path)
		if err := st.Rename(nil, "/vice"+cur.path, "/vice"+to); err != nil {
			fail("rename "+cur.path, err)
			return
		}
		st.did(f, gateFile{to, cur.content})
	case roll < 60 && cur.path != "":
		if err := st.Remove(nil, "/vice"+cur.path); err != nil {
			fail("remove "+cur.path, err)
			return
		}
		st.did(f, gateFile{})
	case roll < 80: // list a directory: this station's files are all there
		dir := []string{gateDir, gateSub}[st.r.Intn(2)]
		ents, err := st.ReadDir(nil, "/vice"+dir)
		if err != nil {
			fail("list "+dir, err)
			return
		}
		st.seen = st.seen[:0]
		listed := map[string]bool{}
		for _, e := range ents {
			st.seen = append(st.seen, dir+"/"+e.Name)
			listed[dir+"/"+e.Name] = true
		}
		for _, own := range st.files {
			if filepath.Dir(own.path) == dir && !listed[own.path] {
				t.Errorf("station %d, operation %d: %s is missing from the listing of %s", st.id, n, own.path, dir)
			}
		}
	case len(st.seen) > 0: // read a file, anyone's
		path := st.seen[st.r.Intn(len(st.seen))]
		name := filepath.Base(path)
		if name == "sub" {
			return
		}
		data, err := st.ReadFile(nil, "/vice"+path)
		mine := false
		for _, own := range st.files {
			if mine = own.path == path; mine {
				if err != nil || string(data) != own.content {
					t.Errorf("station %d, operation %d: reads its own %s as %q, %v; it stored %q", st.id, n, path, gateHead(string(data)), err, gateHead(own.content))
				}
				break
			}
		}
		switch {
		case mine:
		case err != nil && !errors.Is(err, proto.ErrNoEnt) && !errors.Is(err, proto.ErrStale):
			fail("read "+path, err) // its owner may have renamed or removed it, nothing else
		case err == nil && !gateWellFormed(name, string(data)):
			t.Errorf("station %d, operation %d: %s is no version of itself: %q, %d bytes", st.id, n, path, gateHead(string(data)), len(data))
		}
	}
}

// did records an acknowledged change to file f.
func (st *gateStation) did(f int, now gateFile) {
	st.files[f] = now
	st.acks = append(st.acks, gateAck{f, now, st.log.durableSize()})
}

// logFS is a store.FS that keeps the books on walstore's log: how long it
// is, where each record ends, how much of it an fsync has covered, and how
// many appends and fsyncs that took. A nil *logFS (no store) reads as zeros.
type logFS struct {
	store.FS
	mu              sync.Mutex
	size, durable   int64
	ends            []int64 // the log's length after each append since it was last cut back
	appends, fsyncs int64
}

func (l *logFS) Open(name string) (store.File, error) {
	f, err := l.FS.Open(name) // walstore opens nothing but its log
	return logFile{f, l}, err
}

func (l *logFS) WriteFileAtomic(name string, data []byte) error {
	if name == gateLog {
		l.cut(int64(len(data)))
	}
	return l.FS.WriteFileAtomic(name, data)
}

func (l *logFS) Truncate(name string, size int64) error {
	l.cut(size)
	return l.FS.Truncate(name, size)
}

func (l *logFS) cut(size int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.size, l.durable, l.ends = size, size, nil
}

func (l *logFS) counts() (appends, fsyncs int64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.fsyncs
}

func (l *logFS) durableSize() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

type logFile struct {
	store.File
	l *logFS
}

func (f logFile) Append(b []byte) error {
	err := f.File.Append(b)
	f.l.mu.Lock()
	defer f.l.mu.Unlock()
	f.l.size += int64(len(b))
	f.l.ends = append(f.l.ends, f.l.size)
	f.l.appends++
	return err
}

func (f logFile) Sync() error {
	f.l.mu.Lock()
	covers := f.l.size
	f.l.mu.Unlock()
	err := f.File.Sync()
	f.l.mu.Lock()
	defer f.l.mu.Unlock()
	f.l.fsyncs++
	if err == nil && covers > f.l.durable {
		f.l.durable = covers
	}
	return err
}
