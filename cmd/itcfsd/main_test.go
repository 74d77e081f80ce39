package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/trace"
	"itcfs/internal/vice"
)

// TestItcfsdHelperProcess is not a test: re-exec'd by the restart test below
// it becomes the itcfsd daemon, so kill -9 hits a real process.
func TestItcfsdHelperProcess(t *testing.T) {
	if os.Getenv("ITCFSD_HELPER") != "1" {
		t.Skip("helper process entry point")
	}
	os.Exit(run(strings.Split(os.Getenv("ITCFSD_ARGS"), "\x1f")))
}

// TestItcfsdRefusesUnknownMode: a mode is named exactly, or the daemon would
// serve the other design. (No -operator-password: a daemon that took the
// mode would still exit, on that.)
func TestItcfsdRefusesUnknownMode(t *testing.T) {
	for _, mode := range []string{"Prototype", "bogus"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestItcfsdHelperProcess$")
		cmd.Env = append(os.Environ(), "ITCFSD_HELPER=1", "ITCFSD_ARGS=-mode\x1f"+mode)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "unknown mode") {
			t.Errorf("-mode %s: %v, output %q; want exit 2 and unknown mode", mode, err, out)
		}
	}
}

// daemon is one re-exec'd itcfsd under test.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	debug string
}

func startDaemon(t *testing.T, dataDir string) *daemon {
	t.Helper()
	ready := filepath.Join(t.TempDir(), "ready")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-debug-addr", "127.0.0.1:0",
		"-operator-password", "pw",
		"-data-dir", dataDir,
		"-checkpoint-interval", "0",
		"-ready-file", ready,
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestItcfsdHelperProcess$")
	cmd.Env = append(os.Environ(), "ITCFSD_HELPER=1", "ITCFSD_ARGS="+strings.Join(args, "\x1f"))
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})

	deadline := time.Now().Add(15 * time.Second) //itcvet:allow wallclock -- test polls a real subprocess
	for {
		b, err := os.ReadFile(ready)
		if err == nil && strings.HasSuffix(string(b), "\n") {
			lines := strings.Split(strings.TrimSpace(string(b)), "\n")
			d := &daemon{cmd: cmd}
			for _, l := range lines {
				if rest, ok := strings.CutPrefix(l, "ADDR "); ok {
					d.addr = rest
				}
				if rest, ok := strings.CutPrefix(l, "DEBUG "); ok {
					d.debug = rest
				}
			}
			if d.addr == "" {
				t.Fatalf("ready file without ADDR: %q", b)
			}
			return d
		}
		if time.Now().After(deadline) { //itcvet:allow wallclock -- test polls a real subprocess
			t.Fatalf("daemon never became ready (read err %v)", err)
		}
		time.Sleep(20 * time.Millisecond) //itcvet:allow wallclock -- test polls a real subprocess
	}
}

func (d *daemon) dial(t *testing.T) *rpc.Peer {
	t.Helper()
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatalf("dial %s: %v", d.addr, err)
	}
	peer, err := rpc.DialPeer(conn, "operator", secure.DeriveKey("operator", "pw"), rpc.NewServer())
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return peer
}

func call(t *testing.T, peer *rpc.Peer, op uint16, body, bulk []byte) rpc.Response {
	t.Helper()
	resp, err := peer.Call(nil, rpc.Request{Op: rpc.Op(op), Body: body, Bulk: bulk})
	if err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
	return resp
}

func mustOK(t *testing.T, resp rpc.Response) rpc.Response {
	t.Helper()
	if !resp.OK() {
		t.Fatalf("call failed: code %d: %s", resp.Code, resp.Body)
	}
	return resp
}

func ref(p string) proto.Ref { return proto.Ref{Path: p} }

// TestItcfsdKillDashNineRestart is the end-to-end durability test: a real
// daemon process serving real TCP clients is killed with SIGKILL — no
// checkpoint, no flush — restarted over the same data directory, and must
// serve every acknowledged write back. An unacknowledged in-flight write may
// be absent or complete, never torn. The restart's salvage summary must be
// visible on the /events debug endpoint.
func TestItcfsdKillDashNineRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dataDir := filepath.Join(t.TempDir(), "data")

	d1 := startDaemon(t, dataDir)
	peer := d1.dial(t)

	mustOK(t, call(t, peer, proto.OpMakeDir,
		proto.Marshal(proto.NameArgs{Dir: ref("/"), Name: "d", Mode: 0o755}), nil))
	contents := map[string][]byte{}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("f%d", i)
		body := []byte(strings.Repeat(fmt.Sprintf("<%d>", i), 100+i*37))
		mustOK(t, call(t, peer, proto.OpCreate,
			proto.Marshal(proto.NameArgs{Dir: ref("/d"), Name: name, Mode: 0o644}), nil))
		mustOK(t, call(t, peer, proto.OpStore,
			proto.Marshal(proto.StoreArgs{Ref: ref("/d/" + name)}), body))
		contents["/d/"+name] = body
	}

	// An in-flight write racing the kill: acknowledged-or-absent, never torn.
	inflight := []byte(strings.Repeat("INFLIGHT", 4096))
	go func() {
		c, err := net.Dial("tcp", d1.addr)
		if err != nil {
			return
		}
		p, err := rpc.DialPeer(c, "operator", secure.DeriveKey("operator", "pw"), rpc.NewServer())
		if err != nil {
			return
		}
		if r, err := p.Call(nil, rpc.Request{Op: rpc.Op(proto.OpCreate),
			Body: proto.Marshal(proto.NameArgs{Dir: ref("/d"), Name: "inflight", Mode: 0o644})}); err != nil || !r.OK() {
			return
		}
		_, _ = p.Call(nil, rpc.Request{Op: rpc.Op(proto.OpStore),
			Body: proto.Marshal(proto.StoreArgs{Ref: ref("/d/inflight")}), Bulk: inflight})
	}()

	// kill -9: no signal handler runs, no checkpoint is written.
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_, _ = d1.cmd.Process.Wait()

	d2 := startDaemon(t, dataDir)
	peer2 := d2.dial(t)
	for path, want := range contents {
		resp := mustOK(t, call(t, peer2, proto.OpFetch,
			proto.Marshal(proto.FetchArgs{Ref: ref(path)}), nil))
		if string(resp.Bulk) != string(want) {
			t.Fatalf("%s: %d bytes survived, want %d", path, len(resp.Bulk), len(want))
		}
	}
	resp := call(t, peer2, proto.OpFetch,
		proto.Marshal(proto.FetchArgs{Ref: ref("/d/inflight")}), nil)
	switch {
	case resp.Code == proto.CodeNoEnt:
		// lost with the crash: fine, it was never acknowledged
	case resp.OK():
		if len(resp.Bulk) != 0 && string(resp.Bulk) != string(inflight) {
			t.Fatalf("in-flight file is torn: %d of %d bytes", len(resp.Bulk), len(inflight))
		}
	default:
		t.Fatalf("in-flight fetch: code %d: %s", resp.Code, resp.Body)
	}

	// The restart's salvage report is operational evidence on /events.
	httpResp, err := http.Get("http://" + d2.debug + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	events, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), "vice.salvage") {
		t.Fatalf("no vice.salvage event after restart:\n%s", events)
	}
}

// TestWriteLocDB pins the /locdb rendering: version, sorted entries,
// custodians, and — the part a single-daemon end-to-end test cannot drive —
// replica sets.
func TestWriteLocDB(t *testing.T) {
	db := vice.NewLocDB()
	db.Install([]proto.LocEntry{
		{Prefix: "/", Volume: 1, Custodian: "server0"},
		{Prefix: "/unix/bin-ro", Volume: 4, Custodian: "server0", Replicas: []string{"server1", "server2"}},
		{Prefix: "/usr/amy", Volume: 3, Custodian: "server1"},
	}, nil)
	var b strings.Builder
	writeLocDB(&b, db)
	out := b.String()
	if !strings.Contains(out, fmt.Sprintf("location database: version %d, 3 entries", db.Version())) {
		t.Errorf("missing header with version and count:\n%s", out)
	}
	for _, want := range []string{
		"volume 1", "custodian server0",
		"/usr/amy", "custodian server1",
		"/unix/bin-ro", "replicas [server1 server2]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
	// Entries must come out sorted by prefix, not map order.
	if strings.Index(out, "/unix/bin-ro") > strings.Index(out, "/usr/amy") {
		t.Errorf("entries not sorted by prefix:\n%s", out)
	}
}

// TestItcfsdLocDBEndpoint drives the real daemon: create a volume and a
// read-only clone over TCP, then read the location database back from the
// /locdb debug endpoint and find both mounts with their custodian.
func TestItcfsdLocDBEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	d := startDaemon(t, filepath.Join(t.TempDir(), "data"))
	peer := d.dial(t)

	resp := mustOK(t, call(t, peer, proto.OpVolCreate,
		proto.Marshal(proto.VolCreateArgs{Name: "proj", Path: "/proj", Owner: "operator"}), nil))
	vs, err := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
	if err != nil {
		t.Fatal(err)
	}
	vid := vs.Volume
	mustOK(t, call(t, peer, proto.OpVolClone,
		proto.Marshal(proto.VolCloneArgs{Volume: vid, Path: "/proj-ro"}), nil))

	httpResp, err := http.Get("http://" + d.debug + "/locdb")
	if err != nil {
		t.Fatalf("GET /locdb: %v", err)
	}
	body, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{"location database: version", "/proj", "/proj-ro", "custodian server0"} {
		if !strings.Contains(out, want) {
			t.Errorf("/locdb lacks %q:\n%s", want, out)
		}
	}

	// The same listing is folded into the shared snapshot path.
	httpResp, err = http.Get("http://" + d.debug + "/snapshot")
	if err != nil {
		t.Fatalf("GET /snapshot: %v", err)
	}
	snap, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), "location database: version") {
		t.Errorf("/snapshot does not include the location database:\n%.400s", snap)
	}
}

// TestItcfsdDebugProfilingAndLatency drives the real daemon and checks the
// operational surface this deployment leans on: /debug/pprof/ answers with
// the live profile index, and /metrics carries the wall-clock RPC service
// and handshake latency histograms fed by the served calls.
func TestItcfsdDebugProfilingAndLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	d := startDaemon(t, "")
	peer := d.dial(t)
	created := mustOK(t, call(t, peer, proto.OpVolCreate,
		proto.Marshal(proto.VolCreateArgs{Name: "proj", Path: "/proj", Owner: "operator"}), nil))
	vs, err := proto.Unmarshal(created.Body, proto.DecodeVolStatusReply)
	if err != nil {
		t.Fatal(err)
	}
	// A store and a fetch under /proj: two counted calls on its volume, each
	// observed with its wall-clock service time.
	mustOK(t, call(t, peer, proto.OpCreate,
		proto.Marshal(proto.NameArgs{Dir: ref("/proj"), Name: "f", Mode: 0o644}), nil))
	mustOK(t, call(t, peer, proto.OpStore,
		proto.Marshal(proto.StoreArgs{Ref: ref("/proj/f")}), []byte("contents")))
	mustOK(t, call(t, peer, proto.OpFetch,
		proto.Marshal(proto.FetchArgs{Ref: ref("/proj/f")}), nil))

	httpResp, err := http.Get("http://" + d.debug + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	body, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", httpResp.StatusCode)
	}
	for _, want := range []string{"goroutine", "heap"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/debug/pprof/ index lacks %q profile", want)
		}
	}

	httpResp, err = http.Get("http://" + d.debug + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err = io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"rpc.serve.latency"`, `"rpc.accept.latency"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks the %s histogram:\n%.600s", want, body)
		}
	}
	var doc struct {
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	name := trace.VolLatencyMetric(vs.Volume)
	if h, ok := doc.Histograms[name]; !ok || h.Count < 2 {
		t.Errorf("/metrics: %s = %+v (present %v), want a count of at least 2 after a store and a fetch", name, h, ok)
	}
}
