// Package netsim models the ITC network topology of the paper's Figure 2-2:
// semi-autonomous clusters, each a LAN segment of workstations plus a
// cluster server, joined by bridges to a backbone LAN. Bridges are
// store-and-forward routers; the detailed topology is invisible to nodes,
// which see one uniform address space (as the paper requires).
//
// Each LAN segment is a shared medium: frames serialize over it at the
// configured bandwidth and contend FIFO, so utilization and queueing delays
// emerge naturally. The package accounts per-link busy time, frames and
// bytes, and counts cross-cluster traffic, which the evaluation harness uses
// to reproduce the paper's locality arguments.
package netsim

import (
	"fmt"
	"time"

	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// NodeID identifies a network node. IDs are dense, assigned in AddNode order.
type NodeID int

// Message is a delivered network frame.
type Message struct {
	From    NodeID
	To      NodeID
	Size    int // payload bytes, excluding frame overhead
	Payload interface{}
}

// Config holds the physical parameters of the network. ITCDefaults matches
// the paper's era: 10 Mbit/s Ethernets.
type Config struct {
	ClusterBandwidth  int64         // bits per second on cluster LANs
	BackboneBandwidth int64         // bits per second on the backbone
	Propagation       time.Duration // per-segment propagation delay
	BridgeDelay       time.Duration // store-and-forward delay per bridge crossing
	FrameOverhead     int           // header bytes added to every frame
	LocalDelay        time.Duration // loopback delivery delay (same node)
}

// ITCDefaults returns parameters for a mid-1980s campus network: 10 Mbit/s
// Ethernet segments, millisecond-scale bridge forwarding.
func ITCDefaults() Config {
	return Config{
		ClusterBandwidth:  10_000_000,
		BackboneBandwidth: 10_000_000,
		Propagation:       200 * time.Microsecond,
		BridgeDelay:       2 * time.Millisecond,
		FrameOverhead:     64,
		LocalDelay:        50 * time.Microsecond,
	}
}

// Link is a shared-medium LAN segment. Frames transmit one at a time in
// arrival order.
//
// A Link is its own serialization-complete event (Fire): at most one frame
// is clocking onto the medium at a time, so the in-flight frame lives in cur
// and completion schedules without allocating. Waiting frames queue in a
// head-indexed ring.
type Link struct {
	k         *sim.Kernel
	name      string
	bandwidth int64

	busy      bool
	busySince sim.Time
	busyTime  time.Duration
	cur       *frame   // frame on the medium, while busy
	queue     []*frame // head-indexed ring of waiting frames
	qhead     int

	bytes int64

	// Optional per-link instruments, installed by Network.SetMetrics.
	mFrames *trace.Counter
	mBytes  *trace.Counter
	mQueue  *trace.Histogram
	mBusyNs *trace.Gauge
}

func newLink(k *sim.Kernel, name string, bandwidth int64) *Link {
	if bandwidth <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	return &Link{k: k, name: name, bandwidth: bandwidth}
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Bytes returns the total bytes (including frame overhead) carried.
func (l *Link) Bytes() int64 { return l.bytes }

// BusyTime returns cumulative transmission time on the segment.
func (l *Link) BusyTime() time.Duration {
	bt := l.busyTime
	if l.busy {
		bt += l.k.Now().Sub(l.busySince)
	}
	return bt
}

// Utilization returns BusyTime over the interval since the reference time.
func (l *Link) Utilization(since sim.Time) float64 {
	elapsed := l.k.Now().Sub(since)
	if elapsed <= 0 {
		return 0
	}
	return float64(l.BusyTime()) / float64(elapsed)
}

// serialization returns the time to clock size bytes onto the medium.
func (l *Link) serialization(size int) time.Duration {
	bits := int64(size) * 8
	return time.Duration(bits * int64(time.Second) / l.bandwidth)
}

// transmit queues frame f on the segment; f.txDone runs (in kernel context)
// when it has fully left. If the payload accounts its own delays
// (DelaySink), the time spent waiting for the medium and the time clocking
// onto it are credited to it as queueing and serialization.
func (l *Link) transmit(f *frame) {
	if l.busy {
		f.enq = l.k.Now()
		if l.qhead == len(l.queue) {
			l.queue = l.queue[:0]
			l.qhead = 0
		}
		l.queue = append(l.queue, f)
		return
	}
	l.begin(f, 0)
}

func (l *Link) begin(f *frame, queued time.Duration) {
	l.busy = true
	l.busySince = l.k.Now()
	l.cur = f
	l.bytes += int64(f.wire)
	l.mFrames.Inc()
	l.mBytes.Add(int64(f.wire))
	l.mQueue.Observe(queued)
	serial := l.serialization(f.wire)
	if f.sink != nil {
		f.sink.AddNetDelay(queued, serial, 0)
	}
	l.k.AfterFire(serial, l)
}

// Fire completes the current transmission: the frame has left the segment,
// the next queued frame (if any) begins clocking on at this instant, and the
// completed frame advances to its next hop.
func (l *Link) Fire() {
	f := l.cur
	l.cur = nil
	l.busyTime += l.k.Now().Sub(l.busySince)
	l.busy = false
	l.mBusyNs.Set(int64(l.busyTime))
	if l.qhead < len(l.queue) {
		next := l.queue[l.qhead]
		l.queue[l.qhead] = nil
		l.qhead++
		if l.qhead == len(l.queue) {
			l.queue = l.queue[:0]
			l.qhead = 0
		}
		l.begin(next, l.k.Now().Sub(next.enq))
	}
	f.txDone()
}

// Cluster is one LAN segment bridged to the backbone.
type Cluster struct {
	ID   int
	Name string
	LAN  *Link
}

// Node is an addressable endpoint on some cluster LAN.
type Node struct {
	ID      NodeID
	Name    string
	Cluster *Cluster
	// sink receives delivered messages in kernel event context. See SetSink.
	sink func(Message)
}

// SetSink routes this node's deliveries to fn, the one way a frame reaches
// its addressee; a node without a sink discards what arrives. fn runs in
// kernel event context — one scheduling hop after final propagation, exactly
// where a receiver woken by the frame would resume — so it must not park;
// anything that blocks must be handed to a spawned process. A receive loop
// that only demultiplexes (the RPC endpoint's dispatcher) saves a full
// park/resume round trip per frame this way, which at tens of thousands of
// clients is a measurable slice of wall-clock time.
func (n *Node) SetSink(fn func(Message)) { n.sink = fn }

// FaultAction tells the network what to do with one frame. The zero value
// delivers the frame normally.
type FaultAction struct {
	Drop      bool          // lose the frame silently
	Duplicate bool          // deliver the frame twice
	Corrupt   bool          // flip bits in the wire payload before delivery
	Delay     time.Duration // hold the frame this long before routing it
}

// FaultInjector decides, per frame, whether the network misbehaves. Decide
// is consulted once for every frame offered to Send; Corrupt mutates wire
// bytes in place when Decide asked for corruption. Implementations must be
// deterministic for the simulation to stay replayable.
type FaultInjector interface {
	Decide(now sim.Time, src, dst NodeID, size int) FaultAction
	Corrupt(wire []byte)
}

// Corruptible payloads expose their mutable wire bytes so the corruption
// fault can damage them in flight. Payloads without wire bytes are immune.
type Corruptible interface {
	WirePayload() []byte
}

// Duplicable payloads give the fault plane's duplicate a payload of its own.
// A receiver that writes to what it receives (the RPC layer opens a sealed
// packet where it lies) would otherwise leave its twin as the bytes it wrote,
// and a payload that accounts its delays (DelaySink) would add up both
// frames'. Duplicate is called when the duplicate is routed, after any
// corruption, so both frames carry the same bytes. Other payloads are routed
// twice as they are.
type Duplicable interface {
	Duplicate() interface{}
}

// DelaySink payloads account the network delays they experience in flight,
// split into queueing (waiting for a busy medium), serialization (clocking
// onto it) and propagation (signal travel plus bridge store-and-forward).
// The RPC layer's packets implement it, which is how the critical-path
// analyzer attributes call latency to the network. Payloads that don't care
// are simply not consulted.
type DelaySink interface {
	AddNetDelay(queue, serial, prop time.Duration)
}

// frame is one in-flight transmission, pooled on the Network so the
// steady-state send path allocates nothing. Its Fire method advances it
// through the fixed stages of its route — the staged replacement for the
// closure chain a frame's hops used to capture — and txDone is the
// link-transmission-complete continuation.
type frame struct {
	n     *Network
	msg   Message
	wire  int // msg.Size plus frame overhead
	sink  DelaySink
	stage uint8
	enq   sim.Time // when the frame joined a busy link's queue
	free  *frame   // pool linkage
}

// Frame stages. "hop" stages fire after a propagation (and bridge) delay;
// "tx" stages are set while the frame is on a medium and steer txDone.
const (
	stageDelayedRoute uint8 = iota // fault-injector delay elapsed: route now
	stageStartSame                 // begin transmit on the source LAN (same cluster)
	stageStartCross                // begin transmit on the source LAN (cross cluster)
	stageTxSrcSame                 // on source LAN, destination in same cluster
	stageTxSrcCross                // on source LAN, headed for the backbone
	stageHopBackbone               // reached the backbone bridge: transmit there
	stageTxBackbone                // on the backbone
	stageHopDst                    // reached the destination bridge: transmit on its LAN
	stageTxDst                     // on the destination LAN
	stageDeliver                   // final propagation done: count the delivery
	stageSinkDeliver               // sink hand-off: run the destination's sink
)

// Network is the campus internetwork: a backbone plus bridged clusters.
type Network struct {
	k        *sim.Kernel
	cfg      Config
	Backbone *Link
	clusters []*Cluster
	nodes    []*Node

	crossClusterFrames int64
	drops              int64
	partitioned        map[int]bool // clusters cut off from the backbone

	fault    FaultInjector
	nodeDown map[NodeID]bool

	freeFrames *frame // pool of recycled frames

	offered       int64
	delivered     int64
	faultDrops    int64
	faultDups     int64
	faultCorrupts int64
	faultDelays   int64
	downDrops     int64
}

// New creates an empty network with the given physical parameters.
func New(k *sim.Kernel, cfg Config) *Network {
	return &Network{
		k:           k,
		cfg:         cfg,
		Backbone:    newLink(k, "backbone", cfg.BackboneBandwidth),
		partitioned: make(map[int]bool),
		nodeDown:    make(map[NodeID]bool),
	}
}

// Kernel returns the simulation kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// AddCluster creates a new cluster LAN bridged to the backbone.
func (n *Network) AddCluster(name string) *Cluster {
	c := &Cluster{
		ID:   len(n.clusters),
		Name: name,
		LAN:  newLink(n.k, fmt.Sprintf("lan-%s", name), n.cfg.ClusterBandwidth),
	}
	n.clusters = append(n.clusters, c)
	return c
}

// AddNode attaches a new node to a cluster LAN and returns it.
func (n *Network) AddNode(name string, c *Cluster) *Node {
	node := &Node{ID: NodeID(len(n.nodes)), Name: name, Cluster: c}
	n.nodes = append(n.nodes, node)
	return node
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Clusters returns all clusters in creation order.
func (n *Network) Clusters() []*Cluster { return n.clusters }

// CrossClusterFrames returns the number of frames that crossed the backbone.
func (n *Network) CrossClusterFrames() int64 { return n.crossClusterFrames }

// Drops returns the number of frames lost to partitions.
func (n *Network) Drops() int64 { return n.drops }

// Partition detaches a cluster's bridge from the backbone: frames between
// that cluster and any other cluster are silently dropped (single point
// failures must not affect the whole community — §2.2 Availability).
func (n *Network) Partition(c *Cluster) { n.partitioned[c.ID] = true }

// Heal reattaches a partitioned cluster.
func (n *Network) Heal(c *Cluster) { delete(n.partitioned, c.ID) }

// SetFaultInjector installs (or, with nil, removes) the fault plane. Every
// subsequent frame is offered to the injector before routing.
func (n *Network) SetFaultInjector(fi FaultInjector) { n.fault = fi }

// SetMetrics instruments every link that exists at the call — the backbone
// and each cluster LAN — with per-link frame and byte counters, a queueing
// histogram, and a cumulative busy-time gauge in the registry. Call after
// the topology is built; a nil registry uninstruments.
func (n *Network) SetMetrics(r *trace.Registry) {
	links := []*Link{n.Backbone}
	for _, c := range n.clusters {
		links = append(links, c.LAN)
	}
	for _, l := range links {
		if r == nil {
			l.mFrames, l.mBytes, l.mQueue, l.mBusyNs = nil, nil, nil, nil
			continue
		}
		l.mFrames = r.Counter(trace.LinkFramesMetric(l.name))
		l.mBytes = r.Counter(trace.LinkBytesMetric(l.name))
		l.mQueue = r.Histogram(trace.LinkQueueMetric(l.name))
		l.mBusyNs = r.Gauge(trace.LinkBusyGauge(l.name))
	}
}

// Links returns every link in deterministic order — the backbone first,
// then each cluster LAN in creation order. Telemetry samplers walk it to
// probe per-link utilization.
func (n *Network) Links() []*Link {
	links := []*Link{n.Backbone}
	for _, c := range n.clusters {
		links = append(links, c.LAN)
	}
	return links
}

// SetNodeDown powers a node on or off. Frames from or to a down node are
// dropped: at send time, and again at delivery time for frames already in
// flight when the node went down.
func (n *Network) SetNodeDown(id NodeID, down bool) {
	if down {
		n.nodeDown[id] = true
	} else {
		delete(n.nodeDown, id)
	}
}

// Offered returns the number of frames presented to Send (fault duplicates
// count as extra offered frames, so conservation holds: Offered ==
// Delivered + Drops + FaultDrops + DownDrops once the network drains).
func (n *Network) Offered() int64 { return n.offered }

// Delivered returns the number of frames that reached a live destination.
func (n *Network) Delivered() int64 { return n.delivered }

// FaultDrops returns frames lost to the fault injector.
func (n *Network) FaultDrops() int64 { return n.faultDrops }

// FaultDups returns frames duplicated by the fault injector.
func (n *Network) FaultDups() int64 { return n.faultDups }

// FaultCorrupts returns frames whose wire bytes were damaged in flight.
func (n *Network) FaultCorrupts() int64 { return n.faultCorrupts }

// FaultDelays returns frames held back by the fault injector.
func (n *Network) FaultDelays() int64 { return n.faultDelays }

// DownDrops returns frames lost because an endpoint node was powered off.
func (n *Network) DownDrops() int64 { return n.downDrops }

// Send routes a frame from src to dst. Delivery is asynchronous: the payload
// reaches the destination node's sink after the frame traverses every
// segment on the path. Send never blocks the caller. An installed fault
// injector may drop, duplicate, delay or corrupt the frame first, and frames
// touching a powered-off node are lost.
func (n *Network) Send(src, dst NodeID, size int, payload interface{}) {
	n.offered++
	if n.nodeDown[src] || n.nodeDown[dst] {
		n.downDrops++
		return
	}
	var act FaultAction
	if n.fault != nil {
		act = n.fault.Decide(n.k.Now(), src, dst, size)
	}
	if act.Drop {
		n.faultDrops++
		return
	}
	if act.Corrupt {
		if c, ok := payload.(Corruptible); ok {
			n.fault.Corrupt(c.WirePayload())
			n.faultCorrupts++
		}
	}
	if act.Delay > 0 {
		n.faultDelays++
		f := n.newFrame(src, dst, size, payload)
		f.stage = stageDelayedRoute
		n.k.AfterFire(act.Delay, f)
	} else {
		n.route(src, dst, size, payload)
	}
	if act.Duplicate {
		n.offered++
		n.faultDups++
		if d, ok := payload.(Duplicable); ok {
			payload = d.Duplicate()
		}
		n.route(src, dst, size, payload)
	}
}

// newFrame takes a frame from the pool (or allocates one) and initializes it
// for a src->dst transmission.
func (n *Network) newFrame(src, dst NodeID, size int, payload interface{}) *frame {
	f := n.freeFrames
	if f == nil {
		f = &frame{n: n}
	} else {
		n.freeFrames = f.free
		f.free = nil
	}
	f.msg = Message{From: src, To: dst, Size: size, Payload: payload}
	f.wire = size + n.cfg.FrameOverhead
	f.sink, _ = payload.(DelaySink)
	return f
}

// release returns a finished frame to the pool.
func (n *Network) release(f *frame) {
	f.msg = Message{}
	f.sink = nil
	f.free = n.freeFrames
	n.freeFrames = f
}

// route carries one frame across the topology and delivers it. A DelaySink
// payload is credited the path's fixed propagation budget up front (it is
// known from the topology) and its queueing and serialization delays by each
// link as they happen. A frame dropped en route keeps its credited delays;
// only delivered frames are ever read back, so that is harmless.
func (n *Network) route(src, dst NodeID, size int, payload interface{}) {
	n.routeFrame(n.newFrame(src, dst, size, payload))
}

func (n *Network) routeFrame(f *frame) {
	s, d := n.nodes[f.msg.From], n.nodes[f.msg.To]
	switch {
	case s == d:
		if f.sink != nil {
			f.sink.AddNetDelay(0, 0, n.cfg.LocalDelay)
		}
		f.stage = stageDeliver
		n.k.AfterFire(n.cfg.LocalDelay, f)
	case s.Cluster == d.Cluster:
		// One hop on the shared cluster LAN.
		if f.sink != nil {
			f.sink.AddNetDelay(0, 0, n.cfg.Propagation)
		}
		f.stage = stageStartSame
		n.k.AfterFire(0, f)
	default:
		if n.partitioned[s.Cluster.ID] || n.partitioned[d.Cluster.ID] {
			n.drops++
			n.release(f)
			return
		}
		// Cluster LAN -> bridge -> backbone -> bridge -> cluster LAN.
		// Bridge store-and-forward time counts as propagation: it is a
		// fixed per-path cost, not contention.
		if f.sink != nil {
			f.sink.AddNetDelay(0, 0, 3*n.cfg.Propagation+2*n.cfg.BridgeDelay)
		}
		n.crossClusterFrames++
		f.stage = stageStartCross
		n.k.AfterFire(0, f)
	}
}

// Fire advances the frame to its next stage after a scheduled delay — the
// fault-injector hold, the start-of-route yield, a bridge crossing, or the
// final propagation leg.
func (f *frame) Fire() {
	n := f.n
	switch f.stage {
	case stageDelayedRoute:
		n.routeFrame(f)
	case stageStartSame:
		f.stage = stageTxSrcSame
		n.nodes[f.msg.From].Cluster.LAN.transmit(f)
	case stageStartCross:
		f.stage = stageTxSrcCross
		n.nodes[f.msg.From].Cluster.LAN.transmit(f)
	case stageHopBackbone:
		if n.partitioned[n.nodes[f.msg.From].Cluster.ID] || n.partitioned[n.nodes[f.msg.To].Cluster.ID] {
			n.drops++
			n.release(f)
			return
		}
		f.stage = stageTxBackbone
		n.Backbone.transmit(f)
	case stageHopDst:
		f.stage = stageTxDst
		n.nodes[f.msg.To].Cluster.LAN.transmit(f)
	case stageDeliver:
		if n.nodeDown[f.msg.To] {
			n.downDrops++
			n.release(f)
			return
		}
		n.delivered++
		// Run the sink one same-instant scheduling hop later, exactly where
		// a receiver woken by the frame would resume. Without the hop, the
		// sink would run ahead of events already queued at this instant.
		f.stage = stageSinkDeliver
		n.k.AtFire(n.k.Now(), f)
	case stageSinkDeliver:
		sink := n.nodes[f.msg.To].sink
		msg := f.msg
		n.release(f)
		if sink != nil {
			sink(msg)
		}
	}
}

// txDone is the link's continuation: the frame has fully left a segment and
// begins its next propagation (plus bridge store-and-forward) leg.
func (f *frame) txDone() {
	n := f.n
	switch f.stage {
	case stageTxSrcSame, stageTxDst:
		f.stage = stageDeliver
		n.k.AfterFire(n.cfg.Propagation, f)
	case stageTxSrcCross:
		f.stage = stageHopBackbone
		n.k.AfterFire(n.cfg.Propagation+n.cfg.BridgeDelay, f)
	case stageTxBackbone:
		f.stage = stageHopDst
		n.k.AfterFire(n.cfg.Propagation+n.cfg.BridgeDelay, f)
	}
}
