package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"runtime"

	"itcfs/internal/netsim"
	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/store"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// The ladder: direct calls to each layer's public functions at the two sizes
// that bracket the workloads — 128 bytes (a status-sized frame, fixed costs)
// and 4 MiB (a bulk file, per-byte costs). A traced run replays these unit
// costs over the call counts and byte totals its interposers recorded, to
// estimate what sealing and framing cost inside the RPCs it could only time
// from outside. Every rung is short (tens of milliseconds) and reports a
// median, so the whole ladder fits in a couple of seconds.

const (
	rungSmall = 128
	rungLarge = 4 << 20
)

// ladder holds every rung's result.
type ladder struct {
	sealUs128, openUs128          float64
	sealNsB, openNsB              float64
	sealAllocs, sealAllocBPerB    float64
	frameUs128, frameNsB          float64
	frameAllocs, marshalUs        float64
	tcpFrameRTTUs128, tcpFrameNsB float64 // framed echo over loopback TCP, per byte each way
	rttAfterFsyncUs               float64 // a null call whose handler fsyncs first, minus the fsync
	nullRTTUs, echoNsB            float64 // through a real Peer pair
	virtueOverheadUs              float64
	unixfsSmallUs                 float64
	unixfsWriteNsB, unixfsReadNsB float64
	volWriteNsB, volReadNsB       float64
	volSmallMutUs, volSerialNsB   float64
	parkResumeNs, timerEventNs    float64
	simAllocsPerEvent             float64
	netsimDeliverNs               float64
}

// medianOf times fn reps times and returns the median in nanoseconds.
func medianOf(reps int, fn func()) float64 {
	s := make(samples, reps)
	for i := range s {
		t0 := now()
		fn()
		s[i] = now() - t0
	}
	return s.sorted().quantile(0.5)
}

// perCall times batches of n calls and returns the median per-call ns.
func perCall(batches, n int, fn func()) float64 {
	return medianOf(batches, func() {
		for i := 0; i < n; i++ {
			fn()
		}
	}) / float64(n)
}

func allocsOf(n int, fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

var sink []byte // keeps ladder results alive so calls are not optimised away

func runLadder(tmp string) (*ladder, error) {
	l := &ladder{}
	small := bytes.Repeat([]byte{0x5a}, rungSmall)
	large := make([]byte, rungLarge)
	for i := range large {
		large[i] = byte(i * 7)
	}

	// secure
	box := secure.NewBox(secure.DeriveKey("ladder", "ladder"))
	sealedSmall, sealedLarge := box.Seal(small), box.Seal(large)
	l.sealUs128 = perCall(21, 200, func() { sink = box.Seal(small) }) / 1e3
	l.openUs128 = perCall(21, 200, func() { sink, _ = box.Open(sealedSmall) }) / 1e3
	l.sealNsB = medianOf(9, func() { sink = box.Seal(large) }) / rungLarge
	l.openNsB = medianOf(9, func() { sink, _ = box.Open(sealedLarge) }) / rungLarge
	l.sealAllocs, _ = allocsOf(200, func() { sink = box.Seal(small) })
	_, sealBytes := allocsOf(4, func() { sink = box.Seal(large) })
	l.sealAllocBPerB = sealBytes / rungLarge

	// wire: WriteFrame + ReadFrame through an in-memory pipe.
	var pipe bytes.Buffer
	frame := func(p []byte) func() {
		return func() {
			pipe.Reset()
			if err := wire.WriteFrame(&pipe, p); err != nil {
				panic(err) // a bytes.Buffer write cannot fail
			}
			sink, _ = wire.ReadFrame(&pipe)
		}
	}
	l.frameUs128 = perCall(21, 200, frame(small)) / 1e3
	l.frameNsB = medianOf(9, frame(large)) / rungLarge
	l.frameAllocs, _ = allocsOf(200, frame(small))
	status := proto.Status{Size: 4096, Version: 7, Owner: "ladder", Mode: 0o644, Links: 1}
	l.marshalUs = perCall(21, 200, func() { sink = proto.Marshal(status) }) / 1e3

	// net + rpc over loopback TCP.
	if err := l.tcpRungs(tmp, small, large); err != nil {
		return nil, err
	}

	// unixfs
	ufs := unixfs.New(nil)
	if err := ufs.WriteFile("/s", small, 0o644, "ladder"); err != nil {
		return nil, err
	}
	rbuf := make([]byte, rungSmall)
	l.unixfsSmallUs = perCall(21, 200, func() {
		_ = ufs.WriteFile("/s", small, 0o644, "ladder") // same call succeeded above
		_, _ = ufs.ReadAt("/s", rbuf, 0)
	}) / 1e3
	l.unixfsWriteNsB = medianOf(9, func() { _ = ufs.WriteFile("/l", large, 0o644, "ladder") }) / rungLarge
	lbuf := make([]byte, rungLarge)
	l.unixfsReadNsB = medianOf(9, func() { _, _ = ufs.ReadAt("/l", lbuf, 0) }) / rungLarge

	// virtue over venus: FS.ReadFile against raw Open/ReadAt/Close, warm.
	if err := l.virtueRung(tmp); err != nil {
		return nil, err
	}

	// volume
	acl := prot.NewACL()
	acl.Grant(prot.AnyUser, prot.RightsAll)
	vol := volume.New(9, "ladder", acl, 0, "ladder", nil)
	vol.EnableDirtyTracking()
	big, err := vol.Create(vol.Root(), "big", 0o644, "ladder")
	if err != nil {
		return nil, err
	}
	bigFID := big.Status.FID
	l.volWriteNsB = medianOf(9, func() { _, _ = vol.WriteData(bigFID, large) }) / rungLarge
	l.volReadNsB = medianOf(9, func() { sink, _, _ = vol.ReadData(bigFID) }) / rungLarge
	_ = store.CommitOf(vol) // drain what the big file dirtied
	page := make([]byte, 4096)
	n := 0
	l.volSmallMutUs = perCall(11, 100, func() {
		n++
		vn, err := vol.Create(vol.Root(), fmt.Sprintf("f%d", n), 0o644, "ladder")
		if err == nil {
			_, _ = vol.WriteData(vn.Status.FID, page)
		}
		_ = store.CommitOf(vol)
	}) / 1e3
	image := vol.Serialize()
	l.volSerialNsB = medianOf(9, func() { sink = vol.Serialize() }) / float64(len(image))

	// sim and netsim
	l.simRungs()
	sink = nil
	return l, nil
}

// tcpRungs measures a framed echo over raw loopback TCP (what the network
// and wire framing cost with no sealing and no RPC) and the same echo
// through a real authenticated Peer pair. The two are measured in
// alternating batches so that drift in the machine's speed hits both alike:
// rpc.self is their difference.
func (l *ladder) tcpRungs(tmp string, small, large []byte) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	scratch, err := os.CreateTemp(tmp, "ladder-fsync-*")
	if err != nil {
		return err
	}
	defer os.Remove(scratch.Name())
	defer scratch.Close()

	// Raw framed echo.
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for {
			p, err := wire.ReadFrame(c)
			if err != nil {
				done <- nil
				return
			}
			if err := wire.WriteFrame(c, p); err != nil {
				done <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	var echoErr error
	echo := func(p []byte) {
		if err := wire.WriteFrame(c, p); err != nil {
			echoErr = err
			return
		}
		if sink, err = wire.ReadFrame(c); err != nil {
			echoErr = err
		}
	}

	// The same through rpc.Peer: handshake, then an echo op. A second op
	// appends its body to a file and fsyncs before replying, reporting how
	// long that took: the store path's shape, a reply that follows a
	// blocking flush.
	key := secure.DeriveKey("ladder", "ladder")
	const (
		opEcho    = rpc.Op(9000)
		opDurable = rpc.Op(9001)
	)
	srv := rpc.NewServer()
	srv.Handle(opEcho, func(_ rpc.Ctx, req rpc.Request) rpc.Response { return rpc.Response{Bulk: req.Bulk} })
	srv.Handle(opDurable, func(_ rpc.Ctx, req rpc.Request) rpc.Response {
		t0 := now()
		if _, err := scratch.Write(req.Body); err != nil {
			return rpc.Response{Code: 1, Body: []byte(err.Error())}
		}
		if err := scratch.Sync(); err != nil {
			return rpc.Response{Code: 1, Body: []byte(err.Error())}
		}
		return rpc.Response{Body: binary.LittleEndian.AppendUint64(nil, uint64(now()-t0))}
	})
	accepted := make(chan *rpc.Peer, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		p, err := rpc.AcceptPeer(nc, func(string) (secure.Key, bool) { return key, true }, srv)
		if err != nil {
			nc.Close()
			accepted <- nil
			return
		}
		accepted <- p
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	peer, err := rpc.DialPeer(nc, "ladder", key, nil)
	if err != nil {
		nc.Close()
		return err
	}
	defer peer.Close()
	far := <-accepted
	if far == nil {
		return fmt.Errorf("ladder: peer handshake failed")
	}
	defer far.Close()
	var callErr error
	call := func(bulk []byte) {
		resp, err := peer.Call(nil, rpc.Request{Op: opEcho, Bulk: bulk})
		if err != nil || !resp.OK() || len(resp.Bulk) != len(bulk) {
			callErr = fmt.Errorf("ladder: echo call failed: %v", err)
		}
	}

	echo(small) // warm both connections up
	call(nil)
	var rawSmall, rpcSmall, rawLarge, rpcLarge samples
	timeInto := func(s *samples, fn func()) {
		t0 := now()
		fn()
		*s = append(*s, now()-t0)
	}
	for batch := 0; batch < 20; batch++ {
		for i := 0; i < 100; i++ {
			timeInto(&rawSmall, func() { echo(small) })
		}
		for i := 0; i < 100; i++ {
			timeInto(&rpcSmall, func() { call(nil) })
		}
	}
	for i := 0; i < 9; i++ {
		timeInto(&rawLarge, func() { echo(large) })
		timeInto(&rpcLarge, func() { call(large) })
	}
	l.tcpFrameRTTUs128 = rawSmall.sorted().quantile(0.5) / 1e3
	l.nullRTTUs = rpcSmall.sorted().quantile(0.5) / 1e3
	l.tcpFrameNsB = rawLarge.sorted().quantile(0.5) / (2 * rungLarge)
	l.echoNsB = rpcLarge.sorted().quantile(0.5) / (2 * rungLarge)

	// Call after fsync: the round trip minus the fsync itself is what the
	// transport costs when both cores have idled through a disk flush and
	// every goroutine hand-off on the reply path starts from parked threads.
	var afterFsync samples
	for i := 0; i < 101; i++ {
		t0 := now()
		resp, err := peer.Call(nil, rpc.Request{Op: opDurable, Body: small})
		rtt := now() - t0
		if err != nil || !resp.OK() || len(resp.Body) != 8 {
			callErr = fmt.Errorf("ladder: durable call failed: %v %s", err, resp.Body)
			break
		}
		afterFsync = append(afterFsync, rtt-int64(binary.LittleEndian.Uint64(resp.Body)))
	}
	l.rttAfterFsyncUs = afterFsync.sorted().quantile(0.5) / 1e3
	c.Close()
	if err := <-done; err != nil {
		return err
	}
	if echoErr != nil {
		return echoErr
	}
	return callErr
}

// virtueRung builds a one-client cell, caches a 4 KiB file, and times
// virtue's ReadFile against the Venus calls it is made of.
func (l *ladder) virtueRung(tmp string) error {
	c, err := startCell(tmp+"/ladder", nil)
	if err != nil {
		return err
	}
	defer c.close() // the rung is over: a close error changes nothing
	cl, err := c.addClient(opUser, 0)
	if err != nil {
		return err
	}
	page := bytes.Repeat([]byte{0xa5}, 4096)
	if err := cl.fs.WriteFile(nil, "/vice/page", page); err != nil {
		return err
	}
	var rungErr error
	viaVirtue := perCall(21, 200, func() {
		if sink, err = cl.fs.ReadFile(nil, "/vice/page"); err != nil {
			rungErr = err
		}
	})
	buf := make([]byte, 4097)
	viaVenus := perCall(21, 200, func() {
		h, err := cl.v.Open(nil, "/page", venus.FlagRead)
		if err != nil {
			rungErr = err
			return
		}
		_, _ = h.ReadAt(buf, 0)
		_ = h.Close(nil) // a read-only handle's close stores nothing
	})
	l.virtueOverheadUs = (viaVirtue - viaVenus) / 1e3
	return rungErr
}

func (l *ladder) simRungs() {
	const events = 20_000
	// Two processes ping-pong on a pair of mailboxes: each hop is one
	// park/resume.
	k := sim.NewKernel()
	req, rep := sim.NewMailbox[int](k), sim.NewMailbox[int](k)
	k.Spawn("echo", func(p *sim.Proc) {
		for {
			v := req.Get(p)
			if v < 0 {
				return
			}
			rep.Put(v)
		}
	})
	k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < events; i++ {
			req.Put(i)
			rep.Get(p)
		}
		req.Put(-1)
	})
	t0 := now()
	k.Run()
	l.parkResumeNs = float64(now()-t0) / (2 * events)

	// Timer events: one process sleeping in a loop.
	k = sim.NewKernel()
	k.Spawn("timer", func(p *sim.Proc) {
		for i := 0; i < events; i++ {
			p.Sleep(1)
		}
	})
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 = now()
	k.Run()
	l.timerEventNs = float64(now()-t0) / events
	runtime.ReadMemStats(&b)
	l.simAllocsPerEvent = float64(b.Mallocs-a.Mallocs) / events

	// netsim: one frame, one hop, delivered to a sink; frames sent
	// back to back so that nothing but sending and delivering is timed.
	k = sim.NewKernel()
	nw := netsim.New(k, netsim.ITCDefaults())
	lan := nw.AddCluster("lan")
	src, dst := nw.AddNode("src", lan), nw.AddNode("dst", lan)
	got := 0
	dst.SetSink(func(netsim.Message) { got++ })
	k.Spawn("sender", func(*sim.Proc) {
		for i := 0; i < events; i++ {
			nw.Send(src.ID, dst.ID, rungSmall, nil)
		}
	})
	t0 = now()
	k.Run()
	l.netsimDeliverNs = float64(now()-t0) / events
	if got != events {
		l.netsimDeliverNs = 0
	}
}
