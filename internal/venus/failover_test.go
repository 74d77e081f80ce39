package venus

// Replica selection and failover: serverOrder's documented preference rule
// is pinned exactly, and a custodian crash mid-workload moves reads to a
// surviving replica instead of failing them.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/unixfs"
	"itcfs/internal/vice"
)

// TestServerOrderPinned pins the deterministic preference rule: home server
// first when it holds a copy, then the custodian, then the remaining
// replicas in lexicographic order, duplicates dropped. Mutations see only
// the custodian.
func TestServerOrderPinned(t *testing.T) {
	clock := int64(0)
	v := New(Config{
		Local:      unixfs.New(func() int64 { clock++; return clock }),
		HomeServer: "s2",
	})
	cases := []struct {
		name       string
		cr         proto.CustodianReply
		readOnlyOK bool
		want       []string
	}{
		{"no replicas", proto.CustodianReply{Custodian: "s0"}, true, []string{"s0"}},
		{"mutation ignores replicas",
			proto.CustodianReply{Custodian: "s0", Replicas: []string{"s1", "s2"}},
			false, []string{"s0"}},
		{"home replica first",
			proto.CustodianReply{Custodian: "s0", Replicas: []string{"s9", "s2", "s1"}},
			true, []string{"s2", "s0", "s1", "s9"}},
		{"home is custodian",
			proto.CustodianReply{Custodian: "s2", Replicas: []string{"s1", "s0"}},
			true, []string{"s2", "s0", "s1"}},
		{"home absent: custodian then sorted replicas",
			proto.CustodianReply{Custodian: "s5", Replicas: []string{"s4", "s3"}},
			true, []string{"s5", "s3", "s4"}},
		{"custodian duplicated in replica list",
			proto.CustodianReply{Custodian: "s0", Replicas: []string{"s0", "s1"}},
			true, []string{"s0", "s1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := v.serverOrder(tc.cr, tc.readOnlyOK)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("serverOrder = %v, want %v", got, tc.want)
			}
			if head := v.serverFor(tc.cr, tc.readOnlyOK); head != tc.want[0] {
				t.Fatalf("serverFor = %q, want %q", head, tc.want[0])
			}
		})
	}
}

// downConn wraps a test connection, failing calls while its server is
// marked down — the transport-level signature of a crashed custodian.
type downConn struct {
	inner  Conn
	server string
	down   map[string]bool
}

func (d *downConn) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	if d.down[d.server] {
		return rpc.Response{}, rpc.ErrUnreachable
	}
	return d.inner.Call(p, req)
}

// newFailoverVenus is newVenus with a crash switch: servers in down refuse
// dials and fail established connections with ErrUnreachable.
func newFailoverVenus(c *testCell, home, user string, down map[string]bool, tweak func(*Config)) *Venus {
	local := unixfs.New(c.tick)
	var v *Venus
	back := &wsBack{}
	cfg := Config{
		Mode:       c.mode,
		Machine:    "ws-" + user,
		Local:      local,
		HomeServer: home,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	cfg.Connect = func(_ *sim.Proc, server string) (Conn, error) {
		if down[server] {
			return nil, rpc.ErrUnreachable
		}
		s, ok := c.servers[server]
		if !ok {
			return nil, fmt.Errorf("no such server %s", server)
		}
		return &downConn{inner: wsConn{srv: s, user: v.User, back: back}, server: server, down: down}, nil
	}
	v = New(cfg)
	back.v = v
	v.Login(user)
	return v
}

// TestReadFailoverToReplica crashes the custodian of a replicated read-only
// volume and asserts an uncached read is served by the surviving replica.
func TestReadFailoverToReplica(t *testing.T) {
	c := newTestCell(t, vice.Revised, "s0", "s1")
	vid := c.mkVolume("bin", "/bin", "operator", 0)
	op := c.newVenus("s0", "operator", nil)
	writeFile(t, op, "/bin/ls", "ls binary")
	writeFile(t, op, "/bin/cat", "cat binary")

	resp := c.servers["s0"].Dispatcher().Dispatch(rpc.Ctx{User: "operator"}, rpc.Request{
		Op: rpc.Op(proto.OpVolClone),
		Body: proto.Marshal(proto.VolCloneArgs{
			Volume: vid, Path: "/bin-ro", Replicas: []string{"s1"},
		}),
	})
	if !resp.OK() {
		t.Fatalf("clone: %v", proto.CodeToErr(resp.Code, string(resp.Body)))
	}

	down := map[string]bool{}
	v := newFailoverVenus(c, "s0", "satya", down, nil)
	// Warm the location cache while the custodian is alive.
	if got := readFile(t, v, "/bin-ro/ls"); got != "ls binary" {
		t.Fatalf("pre-crash read: %q", got)
	}

	// Custodian down: an uncached file must be fetched from the replica.
	down["s0"] = true
	if got := readFile(t, v, "/bin-ro/cat"); got != "cat binary" {
		t.Fatalf("post-crash read: %q", got)
	}
	if st := v.Stats(); st.Failovers == 0 {
		t.Fatal("expected at least one failover to the replica")
	}
}

// TestMutationDoesNotFailOver pins the write-path rule: a mutation on a
// replicated volume's read-write parent never silently lands on a replica.
func TestMutationDoesNotFailOver(t *testing.T) {
	c := newTestCell(t, vice.Revised, "s0", "s1")
	c.mkVolume("u", "/u", "satya", 0)
	down := map[string]bool{}
	v := newFailoverVenus(c, "s0", "satya", down, nil)
	writeFile(t, v, "/u/f", "before")
	down["s0"] = true
	f, err := v.Open(nil, "/u/f", FlagWrite)
	if err == nil {
		_, werr := f.Write([]byte("after"))
		cerr := f.Close(nil)
		if werr == nil && cerr == nil {
			t.Fatal("write succeeded with the only custodian down")
		}
	}
}

// TestSweepFailoverIsAnOrdinaryFailover takes down the first two servers in
// a released volume's pinned order and forces a sweep: the bulk validation
// reaches the third, and each hop is counted in Failovers and logged as a
// venus.failover flight event, as for any other read that fails over.
func TestSweepFailoverIsAnOrdinaryFailover(t *testing.T) {
	c := newTestCell(t, vice.Revised, "s0", "s1", "s2")
	vid := c.mkVolume("bin", "/bin", "operator", 0)
	op := c.newVenus("s0", "operator", nil)
	writeFile(t, op, "/bin/ls", "ls binary")
	writeFile(t, op, "/bin/cat", "cat binary")
	resp := c.servers["s0"].Dispatcher().Dispatch(rpc.Ctx{User: "operator"}, rpc.Request{
		Op: rpc.Op(proto.OpVolClone),
		Body: proto.Marshal(proto.VolCloneArgs{
			Volume: vid, Path: "/bin-ro", Replicas: []string{"s2", "s1"},
		}),
	})
	if !resp.OK() {
		t.Fatalf("clone: %v", proto.CodeToErr(resp.Code, string(resp.Body)))
	}

	// Homed on replica s1, the station's order for the release is s1 (home),
	// s0 (custodian), s2; the root volume's entries form a group of their
	// own on s0.
	down := map[string]bool{}
	flight := trace.NewRecorder(0, func() sim.Time { return 0 })
	v := newFailoverVenus(c, "s1", "satya", down, func(cfg *Config) { cfg.Flight = flight })
	readFile(t, v, "/bin-ro/ls")
	readFile(t, v, "/bin-ro/cat")

	down["s1"], down["s0"] = true, true
	before := v.Stats().Failovers
	started := rpc.Clock(nil)
	checked, stale, _ := v.Revalidate(nil, true) // the root group's s0 stays unreachable
	if checked != 3 || stale != 0 {
		t.Errorf("sweep checked %d (stale %d), want the release's listing and two files current", checked, stale)
	}
	if got := v.Stats().Failovers - before; got != 2 {
		t.Errorf("Failovers grew by %d, want 2", got)
	}
	// A station without a kernel backs off between hops as a simulated one
	// does, in wall time: failoverBackoff before the first, twice it before
	// the second.
	if got, want := rpc.Clock(nil).Sub(started), 3*failoverBackoff; got < want {
		t.Errorf("the sweep's two failovers took %v, want at least %v of backoff", got, want)
	}
	var hops []string
	for _, e := range flight.Events() {
		if e.Kind == trace.EventVenusFailover {
			hops = append(hops, e.Detail)
		}
	}
	if len(hops) != 2 || !strings.HasSuffix(hops[0], "trying replica s0") || !strings.HasSuffix(hops[1], "trying replica s2") {
		t.Errorf("failover events %q, want s1 -> s0 -> s2", hops)
	}
}
