package netsim

import (
	"testing"
	"time"

	"itcfs/internal/sim"
)

func testConfig() Config {
	return Config{
		ClusterBandwidth:  10_000_000,
		BackboneBandwidth: 10_000_000,
		Propagation:       time.Millisecond,
		BridgeDelay:       2 * time.Millisecond,
		FrameOverhead:     0, // exact arithmetic in tests
		LocalDelay:        100 * time.Microsecond,
	}
}

// inbox installs on nd a sink that feeds a test-local mailbox, so a test
// receives through the one delivery path the network has.
func inbox(k *sim.Kernel, nd *Node) *sim.Mailbox[Message] {
	mb := sim.NewMailbox[Message](k)
	nd.SetSink(mb.Put)
	return mb
}

// build makes two clusters with two nodes each: a0, a1 on cluster A and
// b0 on cluster B.
func build(t *testing.T) (*sim.Kernel, *Network, *Node, *Node, *Node) {
	t.Helper()
	k := sim.NewKernel()
	n := New(k, testConfig())
	ca := n.AddCluster("A")
	cb := n.AddCluster("B")
	a0 := n.AddNode("a0", ca)
	a1 := n.AddNode("a1", ca)
	b0 := n.AddNode("b0", cb)
	return k, n, a0, a1, b0
}

func TestIntraClusterDelivery(t *testing.T) {
	k, n, a0, a1, _ := build(t)
	var at sim.Time
	var got Message
	rx := inbox(k, a1)
	k.Spawn("rx", func(p *sim.Proc) {
		got = rx.Get(p)
		at = p.Now()
	})
	// 12500 bytes at 10 Mbit/s = 10ms serialization, +1ms propagation.
	n.Send(a0.ID, a1.ID, 12500, "hi")
	k.Run()
	if got.Payload != "hi" || got.From != a0.ID || got.Size != 12500 {
		t.Fatalf("got %+v", got)
	}
	want := sim.Time(11 * time.Millisecond)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	if n.CrossClusterFrames() != 0 {
		t.Errorf("intra-cluster send counted as cross-cluster")
	}
}

func TestCrossClusterDelivery(t *testing.T) {
	k, n, a0, _, b0 := build(t)
	var at sim.Time
	rx := inbox(k, b0)
	k.Spawn("rx", func(p *sim.Proc) {
		rx.Get(p)
		at = p.Now()
	})
	// 12500 bytes: 10ms on LAN A + 1ms prop + 2ms bridge + 10ms backbone
	// + 1ms prop + 2ms bridge + 10ms on LAN B + 1ms prop = 37ms.
	n.Send(a0.ID, b0.ID, 12500, nil)
	k.Run()
	want := sim.Time(37 * time.Millisecond)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	if n.CrossClusterFrames() != 1 {
		t.Errorf("CrossClusterFrames = %d, want 1", n.CrossClusterFrames())
	}
	if got := n.Backbone.Bytes(); got != 12500 {
		t.Errorf("backbone carried %d bytes, want 12500", got)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	k, n, a0, _, _ := build(t)
	var at sim.Time
	rx := inbox(k, a0)
	k.Spawn("rx", func(p *sim.Proc) {
		rx.Get(p)
		at = p.Now()
	})
	n.Send(a0.ID, a0.ID, 1000, nil)
	k.Run()
	if at != sim.Time(100*time.Microsecond) {
		t.Fatalf("loopback at %v, want 100µs", at)
	}
	if got := a0.Cluster.LAN.Bytes(); got != 0 {
		t.Errorf("loopback used the LAN: %d bytes", got)
	}
}

func TestLANContentionSerializes(t *testing.T) {
	k, n, a0, a1, _ := build(t)
	var arrivals []sim.Time
	rx := inbox(k, a1)
	k.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			rx.Get(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	// Two 12500-byte frames sent at once share the medium: the second
	// serializes only after the first (10ms each).
	n.Send(a0.ID, a1.ID, 12500, 1)
	n.Send(a0.ID, a1.ID, 12500, 2)
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != sim.Time(11*time.Millisecond) || arrivals[1] != sim.Time(21*time.Millisecond) {
		t.Fatalf("arrivals = %v, want [11ms 21ms]", arrivals)
	}
	if bt := a0.Cluster.LAN.BusyTime(); bt != 20*time.Millisecond {
		t.Errorf("LAN busy %v, want 20ms", bt)
	}
}

func TestLinkUtilizationAndBytes(t *testing.T) {
	k, n, a0, a1, _ := build(t)
	rx := inbox(k, a1)
	k.Spawn("rx", func(p *sim.Proc) { rx.Get(p) })
	n.Send(a0.ID, a1.ID, 12500, nil)
	k.Run() // ends at 11ms
	lan := a0.Cluster.LAN
	if lan.Bytes() != 12500 {
		t.Errorf("Bytes = %d, want 12500", lan.Bytes())
	}
	u := lan.Utilization(0)
	if u < 0.90 || u > 0.92 { // 10ms busy / 11ms elapsed
		t.Errorf("Utilization = %v, want ~0.909", u)
	}
}

func TestFrameOverheadCharged(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig()
	cfg.FrameOverhead = 64
	n := New(k, cfg)
	c := n.AddCluster("A")
	a := n.AddNode("a", c)
	b := n.AddNode("b", c)
	rx := inbox(k, b)
	k.Spawn("rx", func(p *sim.Proc) { rx.Get(p) })
	n.Send(a.ID, b.ID, 1000, nil)
	k.Run()
	if got := c.LAN.Bytes(); got != 1064 {
		t.Fatalf("LAN bytes = %d, want 1064", got)
	}
}

func TestPartitionDropsCrossClusterOnly(t *testing.T) {
	k, n, a0, a1, b0 := build(t)
	var intra, inter int
	rxA, rxB := inbox(k, a1), inbox(k, b0)
	k.Spawn("rxA", func(p *sim.Proc) {
		rxA.Get(p)
		intra++
	})
	k.Spawn("rxB", func(p *sim.Proc) {
		rxB.Get(p)
		inter++
	})
	n.Partition(b0.Cluster)
	n.Send(a0.ID, b0.ID, 100, nil) // dropped
	n.Send(a0.ID, a1.ID, 100, nil) // delivered: LAN A unaffected
	k.Run()
	if inter != 0 {
		t.Error("cross-cluster frame delivered through partition")
	}
	if intra != 1 {
		t.Error("intra-cluster frame lost during unrelated partition")
	}
	if n.Drops() != 1 {
		t.Errorf("Drops = %d, want 1", n.Drops())
	}
	// Healing restores connectivity.
	n.Heal(b0.Cluster)
	n.Send(a0.ID, b0.ID, 100, nil)
	k.Run()
	if inter != 1 {
		t.Error("frame not delivered after Heal")
	}
}

func TestManyNodesManyClusters(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, testConfig())
	var nodes []*Node
	for c := 0; c < 5; c++ {
		cl := n.AddCluster("c")
		for w := 0; w < 10; w++ {
			nodes = append(nodes, n.AddNode("w", cl))
		}
	}
	received := 0
	for _, nd := range nodes {
		rx := inbox(k, nd)
		k.Spawn("rx", func(p *sim.Proc) {
			rx.Get(p)
			received++
		})
	}
	// Node 0 broadcasts to everyone else; everyone gets one frame.
	for _, nd := range nodes[1:] {
		n.Send(nodes[0].ID, nd.ID, 500, nil)
	}
	n.Send(nodes[0].ID, nodes[0].ID, 500, nil)
	k.Run()
	if received != 50 {
		t.Fatalf("received = %d, want 50", received)
	}
	if n.CrossClusterFrames() != 40 {
		t.Errorf("CrossClusterFrames = %d, want 40", n.CrossClusterFrames())
	}
}
