package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"itcfs/internal/sim"
)

// Property: every frame sent is either delivered to exactly its addressee
// or counted as a partition drop — the network never duplicates, misroutes
// or silently loses traffic.
func TestQuickFrameConservation(t *testing.T) {
	f := func(seed int64, nMsg uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		n := New(k, testConfig())
		var nodes []*Node
		for c := 0; c < 3; c++ {
			cl := n.AddCluster("c")
			for w := 0; w < 3; w++ {
				nodes = append(nodes, n.AddNode("n", cl))
			}
		}
		received := make([]int, len(nodes))
		wrongDest := false
		for _, nd := range nodes {
			nd, rx := nd, inbox(k, nd)
			k.Spawn("rx", func(p *sim.Proc) {
				for {
					msg := rx.Get(p)
					if msg.To != nd.ID {
						wrongDest = true
					}
					received[nd.ID]++
				}
			})
		}
		total := int(nMsg)
		expected := make([]int, len(nodes))
		partitioned := r.Intn(4) == 0
		if partitioned {
			n.Partition(n.Clusters()[r.Intn(3)])
		}
		dropsExpected := 0
		for i := 0; i < total; i++ {
			src := nodes[r.Intn(len(nodes))]
			dst := nodes[r.Intn(len(nodes))]
			srcCut := n.partitioned[src.Cluster.ID]
			dstCut := n.partitioned[dst.Cluster.ID]
			crossing := src.Cluster != dst.Cluster
			if crossing && (srcCut || dstCut) {
				dropsExpected++
			} else {
				expected[dst.ID]++
			}
			n.Send(src.ID, dst.ID, 100+r.Intn(2000), i)
		}
		k.Run()
		if wrongDest {
			return false
		}
		if n.Drops() != int64(dropsExpected) {
			return false
		}
		for i := range nodes {
			if received[i] != expected[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: link byte counters equal the sum of frame sizes (plus overhead)
// placed on them; utilization never exceeds 1.
func TestQuickLinkAccounting(t *testing.T) {
	f := func(sizes []uint16) bool {
		k := sim.NewKernel()
		cfg := testConfig()
		cfg.FrameOverhead = 64
		n := New(k, cfg)
		cl := n.AddCluster("A")
		a := n.AddNode("a", cl)
		b := n.AddNode("b", cl)
		rx := inbox(k, b)
		k.Spawn("rx", func(p *sim.Proc) {
			for {
				rx.Get(p)
			}
		})
		var want int64
		for _, s := range sizes {
			size := int(s%8192) + 1
			want += int64(size + 64)
			n.Send(a.ID, b.ID, size, nil)
		}
		k.Run()
		if cl.LAN.Bytes() != want {
			return false
		}
		u := cl.LAN.Utilization(0)
		return u >= 0 && u <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
