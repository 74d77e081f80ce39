package vice

// A served call is observed the same way on both carriers: the call core
// hands it to the dispatcher's OnServed hook, observeCall, which records its
// service time against the volume it touched. These tests drive it over real
// Peers, whose workers serve concurrently.

import (
	"net"
	"sync"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/trace"
)

// servePipes boots a server reporting to metrics (nil for none) and serves
// n connections to it over net.Pipe, each dialled as the operator. Cleanup
// closes them and waits until the server has dropped each one.
func servePipes(t testing.TB, metrics *trace.Registry, n int) (*Server, []*rpc.Peer) {
	t.Helper()
	srv, _, err := Boot(Config{Name: "server0", Mode: Revised, DB: usersDB(t), Metrics: metrics}, "pw")
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]*rpc.Peer, n)
	var served sync.WaitGroup
	t.Cleanup(func() {
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
		served.Wait()
	})
	for i := range peers {
		cc, sc := net.Pipe()
		served.Add(1)
		go func() {
			defer served.Done()
			_, _ = srv.ServeConn(sc)
		}()
		if peers[i], err = rpc.DialPeer(cc, "operator", secure.DeriveKey("operator", "pw"), rpc.NewServer()); err != nil {
			cc.Close()
			t.Fatal(err)
		}
	}
	return srv, peers
}

// peerCall places one call on p and fails the test unless it succeeds.
func peerCall(t testing.TB, p *rpc.Peer, op uint16, body, bulk []byte) rpc.Response {
	t.Helper()
	resp, err := p.Call(nil, rpc.Request{Op: rpc.Op(op), Body: body, Bulk: bulk})
	if err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
	return mustOK(t, resp)
}

// mkVolumeFile creates the volume name at /name holding the file f, over p,
// and returns the volume's ID.
func mkVolumeFile(t testing.TB, p *rpc.Peer, name string) uint32 {
	t.Helper()
	resp := peerCall(t, p, proto.OpVolCreate,
		proto.Marshal(proto.VolCreateArgs{Name: name, Path: "/" + name, Owner: "operator"}), nil)
	vs, err := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
	if err != nil {
		t.Fatal(err)
	}
	resp.Release()
	resp = peerCall(t, p, proto.OpCreate,
		proto.Marshal(proto.NameArgs{Dir: proto.Ref{Path: "/" + name}, Name: "f", Mode: 0o644}), nil)
	resp.Release()
	return vs.Volume
}

// TestObservingACallAllocatesNothing: volume latency is observed on every
// counted call a real server serves, so a warm FetchStatus over a Peer must
// cost the same objects, both ends included, with metrics as without.
func TestObservingACallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	measure := func(reg *trace.Registry) float64 {
		_, peers := servePipes(t, reg, 1)
		mkVolumeFile(t, peers[0], "a")
		body := proto.Marshal(proto.StatusArgs{Ref: proto.Ref{Path: "/a/f"}})
		call := func() {
			resp, err := peers[0].Call(nil, rpc.Request{Op: rpc.Op(proto.OpFetchStatus), Body: body})
			if err != nil || !resp.OK() {
				t.Fatalf("FetchStatus: %v (code %d)", err, resp.Code)
			}
			resp.Release()
		}
		for i := 0; i < 50; i++ {
			call()
		}
		return testing.AllocsPerRun(500, call)
	}
	bare, observed := measure(nil), measure(trace.NewRegistry())
	if observed != bare {
		t.Errorf("a warm FetchStatus allocates %.1f objects with metrics, %.1f without", observed, bare)
	}
	t.Logf("warm FetchStatus over a Peer: %.1f objects with metrics, %.1f without", observed, bare)
}

// TestConcurrentServedCallsObserveTheirVolume: eight real connections make
// counted calls on two volumes at once. Each connection's worker writes the
// server's pendingVol under its own process; an entry lost or left behind
// shows only when calls interleave, as a volume's count off by the calls
// made to it or an entry still pending afterwards.
func TestConcurrentServedCallsObserveTheirVolume(t *testing.T) {
	const conns, calls = 8, 40
	reg := trace.NewRegistry()
	srv, peers := servePipes(t, reg, conns)
	names := []string{"a", "b"}
	hists := make([]*trace.Histogram, len(names))
	before := make([]int64, len(names))
	for i, name := range names {
		hists[i] = reg.Histogram(trace.VolLatencyMetric(mkVolumeFile(t, peers[0], name)))
		before[i] = hists[i].Count()
	}
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(p *rpc.Peer, name string) {
			defer wg.Done()
			body := proto.Marshal(proto.StatusArgs{Ref: proto.Ref{Path: "/" + name + "/f"}})
			for j := 0; j < calls; j++ {
				resp, err := p.Call(nil, rpc.Request{Op: rpc.Op(proto.OpFetchStatus), Body: body})
				if err != nil || !resp.OK() {
					t.Errorf("FetchStatus /%s/f: %v (code %d)", name, err, resp.Code)
					return
				}
				resp.Release()
			}
		}(p, names[i%len(names)])
	}
	wg.Wait()
	for i, name := range names {
		if got, want := hists[i].Count()-before[i], int64(conns/len(names)*calls); got != want {
			t.Errorf("/%s: %d calls observed, want %d", name, got, want)
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.pendingVol) != 0 {
		t.Errorf("pendingVol holds %d entries after every call returned, want none", len(srv.pendingVol))
	}
}
