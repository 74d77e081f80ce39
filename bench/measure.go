package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"itcfs/internal/venus"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, and the last instance is the one measured.
const setupRepeats = 3

// minClassSamples is the fewest samples a latency class needs before it is
// reported on a workload.
const minClassSamples = 200

// totals is what the measured phase added to every counter the benchmark
// reads from outside: Venus's own statistics and the disk shim.
type totals struct {
	venus     venus.Stats   // summed over the measured clients
	perClient []venus.Stats // in op.cli order
	appends   int64
	fsyncs    int64
	diskBytes int64
	logBytes  int64
}

func (t *totals) rpcs() int64 {
	s := t.venus
	return s.Fetches + s.Stores + s.StatRPCs + s.OtherRPCs + s.Validations + s.BulkValidations
}

// fsyncsPerMut is log fsyncs per log append: every mutation appends one
// record, so below 1 means group commit shared an fsync.
func (t *totals) fsyncsPerMut() float64 {
	if t.appends == 0 {
		return 0
	}
	return float64(t.fsyncs) / float64(t.appends)
}

func subStats(a, b venus.Stats) venus.Stats {
	return venus.Stats{
		Opens: a.Opens - b.Opens, Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		Validations: a.Validations - b.Validations, BulkValidations: a.BulkValidations - b.BulkValidations,
		Revalidated: a.Revalidated - b.Revalidated, Fetches: a.Fetches - b.Fetches, Stores: a.Stores - b.Stores,
		StatRPCs: a.StatRPCs - b.StatRPCs, OtherRPCs: a.OtherRPCs - b.OtherRPCs,
		CallbackBreaks: a.CallbackBreaks - b.CallbackBreaks, Evictions: a.Evictions - b.Evictions,
		BytesFetched: a.BytesFetched - b.BytesFetched, BytesStored: a.BytesStored - b.BytesStored,
		DegradedReads: a.DegradedReads - b.DegradedReads, Reconnects: a.Reconnects - b.Reconnects,
		Failovers: a.Failovers - b.Failovers,
	}
}

// addStats is a + b, written as a - (0 - b) so the field list exists once.
func addStats(a, b venus.Stats) venus.Stats {
	return subStats(a, subStats(venus.Stats{}, b))
}

type snapshot struct {
	stats                               []venus.Stats
	appends, fsyncs, diskBytes, logSize int64
}

func (r *run) snapshot() snapshot {
	var s snapshot
	if r.cell == nil {
		return s
	}
	for _, d := range r.drv {
		s.stats = append(s.stats, d.cl.v.Stats())
	}
	d := r.cell.disk
	s.appends, s.fsyncs, s.diskBytes, s.logSize = d.appends.Load(), d.fsyncs.Load(), d.diskBytes(), d.appendBytes.Load()
	return s
}

func diffSnapshots(after, before snapshot) *totals {
	t := &totals{
		appends: after.appends - before.appends, fsyncs: after.fsyncs - before.fsyncs,
		diskBytes: after.diskBytes - before.diskBytes, logBytes: after.logSize - before.logSize,
	}
	for i := range after.stats {
		d := subStats(after.stats[i], before.stats[i])
		t.perClient = append(t.perClient, d)
		t.venus = addStats(t.venus, d)
	}
	return t
}

func environment() Env {
	e := Env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		Transport:  "loopback TCP (127.0.0.1), client and server in one process",
		Disk:       "walstore on the sandbox's file system, fsync on (the sandbox's fsync, not a device's)",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

// runOpts says what to run. The benchmark always uses fullSizes, three
// setups and the ladder; the tests shrink all three.
type runOpts struct {
	name       string
	seed       int64
	seconds    float64
	traced     bool
	tmp        string // a directory of this run's own; the caller removes it
	outDir     string // where a traced run writes its spans ("" = nowhere)
	sizes      sizes
	setups     int
	skipLadder bool
}

// runWorkload is one complete run: set up (three times), measure, verify,
// and in a traced run climb the ladder and attribute.
func runWorkload(o runOpts) (*Report, error) {
	name, seed, seconds, traced, tmp := o.name, o.seed, o.seconds, o.traced, o.tmp
	rep := &Report{Workload: name, Seed: seed, Seconds: seconds, Traced: traced, Env: environment()}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var r *run
	var setups []float64
	for k := 0; k < o.setups; k++ {
		w, err := newWorkload(name, seed, o.sizes)
		if err != nil {
			return nil, err
		}
		t0 := now()
		r, err = newRun(w, seed, tmp, tr)
		if err != nil {
			if r != nil {
				r.teardown()
			}
			return nil, err
		}
		setups = append(setups, float64(now()-t0)/1e9)
		if k < o.setups-1 {
			r.teardown()
		}
	}
	defer r.teardown()

	// Peak RSS is to describe the measured phase, not the three set-ups
	// before it: return what they left to the OS and restart the kernel's
	// high-water mark (where the kernel lets us; otherwise it covers both).
	debug.FreeOSMemory()
	resetPeakRSS()
	before, u0 := r.snapshot(), readUsage()
	r.measure(seconds)
	u1, after := readUsage(), r.snapshot()
	t := diffSnapshots(after, before)

	var ops float64
	for _, rd := range r.rounds {
		ops += rd.ops
		if rd.ops > 0 {
			rep.RoundUsPerOp = append(rep.RoundUsPerOp, float64(rd.ns)/1e3/rd.ops)
		}
	}
	rep.Rounds, rep.Ops = len(r.rounds), ops
	rep.OpsHash = fmt.Sprintf("%016x/%d", r.genSum.h, r.genSum.nops)
	var lat [nClasses]samples
	var fetched, stored int64
	for _, d := range r.drv {
		rep.Attempted += d.attempted
		rep.Failed += d.failed
		fetched += d.fetched
		stored += d.stored
		for c := range lat {
			lat[c] = append(lat[c], d.lat[c]...)
		}
		if d.firstErr != nil {
			rep.Problems = append(rep.Problems, d.firstErr.Error())
		}
	}
	for c := range lat {
		lat[c] = lat[c].sorted()
	}
	sim, isSim := r.w.(*simCell)
	if isSim {
		rep.Attempted = int64(o.sizes.simClients * len(r.rounds))
		for _, h := range sim.hours {
			if h == 0 {
				rep.Failed += int64(o.sizes.simClients)
			}
		}
		if sim.firstEr != nil {
			rep.Problems = append(rep.Problems, sim.firstEr.Error())
		}
		rep.Notes = append(rep.Notes, "the harness fixes its own seed: --seed does not change this workload's inputs")
	}
	rep.Problems = append(rep.Problems, r.w.pinned(r, t)...)

	// The two exact costs ROADMAP makes hard gates. More than the seed
	// commit's figure fails the run; fewer is a gain and passes.
	var rpcsPerOp, diskPerUser float64
	if r.cell != nil {
		rpcsPerOp = float64(t.rpcs()) / ops
		if r.storedAtCkpt > 0 { // whole checkpoint periods, like the allocation counts
			diskPerUser = float64(r.diskAtCkpt-before.diskBytes) / float64(r.storedAtCkpt)
		} else if stored > 0 {
			diskPerUser = float64(t.diskBytes) / float64(stored)
		}
		if pin, ok := o.sizes.pins[name]; ok {
			if rpcsPerOp > pin.rpcsPerOp*(1+pinSlack) {
				rep.Problems = append(rep.Problems, fmt.Sprintf("%.4f RPCs per op, at the seed commit %.4f", rpcsPerOp, pin.rpcsPerOp))
			}
			if diskPerUser > pin.diskPerUserByte*(1+pinSlack) {
				rep.Problems = append(rep.Problems, fmt.Sprintf("%.4f bytes to disk per user byte, at the seed commit %.4f", diskPerUser, pin.diskPerUserByte))
			}
		}
	}

	// Verification: a cold client reads back every file an acknowledged
	// store left, first from the live server, then from a server recovered
	// from what a crash at this instant would have left on disk.
	if r.cell != nil {
		att, failed, problems := r.verify()
		rep.Attempted += att
		rep.Failed += failed
		rep.Problems = append(rep.Problems, problems...)
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0

	// End-to-end figures. In a traced run they describe the untraced (even)
	// rounds and serve as the reference for the tracing overhead.
	var plain, tracedRounds []roundStat
	for _, rd := range r.rounds {
		if rd.traced {
			tracedRounds = append(tracedRounds, rd)
		} else {
			plain = append(plain, rd)
		}
	}
	spo := secondsPerOp(plain, r.ckptNs, r.sp.ckptEvery)
	var cpuPerOp, sysPerOp []float64
	for _, rd := range r.rounds {
		if rd.ops > 0 {
			cpuPerOp = append(cpuPerOp, float64(rd.userNs+rd.sysNs)/1e3/rd.ops)
			sysPerOp = append(sysPerOp, float64(rd.sysNs)/1e3/rd.ops)
		}
	}
	allocEnd, allocOps := u1, ops
	if r.opsAtCkpt > 0 {
		allocEnd, allocOps = r.atCkpt, r.opsAtCkpt
	}
	opsPerS, opP50 := 1/spo, 0.0
	if isSim {
		var per []float64
		for _, rd := range r.rounds {
			if rd.ops > 0 {
				per = append(per, float64(rd.ns)/1e3/rd.ops)
			}
		}
		opP50 = medianF(per)
	} else {
		opP50 = lat[r.sp.primary].quantile(0.5) / 1e3
		rep.Notes = append(rep.Notes, fmt.Sprintf("op_p50_us is the %s class", classNames[r.sp.primary]))
	}

	if !traced {
		rep.set(mSetupS, medianF(setups))
		rep.set(mAllocsPerOp, float64(allocEnd.mallocs-u0.mallocs)/allocOps)
		rep.set(mAllocBytesPerOp, float64(allocEnd.allocBytes-u0.allocBytes)/allocOps)
		var rss []float64
		for _, rd := range r.rounds {
			rss = append(rss, float64(rd.rssKiB)/1024)
		}
		rep.set(mRSSMB, medianF(rss))
		// What else this run measured, without interposers: what -compare
		// gates, then what exists only on some workloads (absent where it
		// does not apply).
		rep.detail(mOpsPerS, unitOf(mOpsPerS), opsPerS)
		rep.detail(mOpP50Us, unitOf(mOpP50Us), opP50)
		rep.detail(mCPUUsPerOp, unitOf(mCPUUsPerOp), medianF(cpuPerOp))
		rep.detail(mMaxRSSMB, unitOf(mMaxRSSMB), float64(u1.maxRSSKiB)/1024)
		rep.detail("sys_cpu_us_per_op", "us", medianF(sysPerOp))
		if !isSim {
			for c := class(0); c < nClasses; c++ {
				if len(lat[c]) < minClassSamples {
					continue
				}
				tailLabel, tailNs := lat[c].tail()
				rep.detail(classNames[c]+"_p50_us", "us", lat[c].quantile(0.5)/1e3)
				rep.detail(classNames[c]+"_"+tailLabel+"_us", "us", tailNs/1e3)
				rep.sampleCount(classNames[c]+"_p50_us", len(lat[c]))
			}
			var wall float64
			for _, rd := range r.rounds {
				wall += float64(rd.ns) / 1e9
			}
			rep.detail("mb_per_s", "MB/s", float64(fetched+stored)/1e6/wall)
			rep.detail("rpcs_per_op", "count", rpcsPerOp)
			if stored > 0 {
				rep.detail("disk_bytes_per_user_byte", "ratio", diskPerUser)
			}
			rep.detail("fail_ratio", "ratio", float64(rep.Failed)/float64(rep.Attempted))
		}
		return rep, nil
	}

	lad := &ladder{}
	if !o.skipLadder {
		var err error
		if lad, err = runLadder(tmp); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	r.perLayer(rep, t, lad, lat, plain, tracedRounds, float64(fetched+stored), diskPerUser)
	rep.set(mBenchOpsPerS, opsPerS)
	rep.set(mBenchOpP50, opP50)
	rep.set(mBenchCPU, medianF(cpuPerOp))
	rep.set(mBenchSysCPU, medianF(sysPerOp))
	if o.outDir != "" {
		if err := tr.writeSpans(filepath.Join(o.outDir, name+".spans.json")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// verify reads every stored file back through a cold client, live and after
// crash recovery. It stops the run's cell.
func (r *run) verify() (attempted, failed int64, problems []string) {
	want := make(map[string]fileState, len(r.side))
	for p, st := range r.side {
		want[p] = st
	}
	for _, d := range r.drv {
		for p, st := range d.files {
			want[p] = st
		}
	}
	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	ct := r.drv[0].content.fork()
	readBack := func(c *cell, stage string) {
		cl, err := c.addClient(opUser, 0)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: cold client: %v", stage, err))
			failed += int64(len(paths))
			attempted += int64(len(paths))
			return
		}
		bad := 0
		for _, p := range paths {
			st := want[p]
			attempted++
			data, err := cl.fs.ReadFile(nil, p)
			if err != nil || !ct.check(data, st.key, st.version, int(st.size), true) {
				failed++
				if bad == 0 {
					problems = append(problems, fmt.Sprintf("%s: %s: wrong or missing (err=%v)", stage, p, err))
				}
				bad++
			}
		}
	}
	readBack(r.cell, "cold read-back")

	// Drop the server without a checkpoint, then recover from a copy of its
	// directory cut back to what fsync covered.
	crashDir := r.cell.dir + "-crash"
	if err := r.cell.close(); err != nil {
		problems = append(problems, fmt.Sprintf("close: %v", err))
	}
	err := r.cell.crashCopy(crashDir)
	_ = os.RemoveAll(r.cell.dir)
	r.cell = nil
	defer os.RemoveAll(crashDir)
	if err != nil {
		return attempted, failed, append(problems, fmt.Sprintf("crash copy: %v", err))
	}
	rec, err := startCell(crashDir, nil)
	if err != nil {
		return attempted, failed, append(problems, fmt.Sprintf("recovery: %v", err))
	}
	readBack(rec, "after crash recovery")
	if err := rec.close(); err != nil {
		problems = append(problems, fmt.Sprintf("close recovered: %v", err))
	}
	return attempted, failed, problems
}

// perLayer fills the traced run's metrics: what each layer cost, from the
// interposers' spans and counts, Venus's statistics and the ladder, and how
// much of the end-to-end time they add up to.
func (r *run) perLayer(rep *Report, t *totals, lad *ladder, lat [nClasses]samples, plain, tracedRounds []roundStat, userBytes, diskPerUser float64) {
	for _, m := range perLayerSpecs {
		rep.set(m.Name, 0) // every per-layer metric is always present; 0 = does not occur here
	}
	// The ladder is workload-independent.
	for name, v := range map[string]float64{
		mSecureSeal128: lad.sealUs128, mSecureOpen128: lad.openUs128,
		mSecureSealNsB: lad.sealNsB, mSecureOpenNsB: lad.openNsB,
		mSecureAllocs: lad.sealAllocs, mSecureAllocB: lad.sealAllocBPerB,
		mWireFrame128: lad.frameUs128, mWireFrameNsB: lad.frameNsB,
		mWireAllocs: lad.frameAllocs, mWireMarshal: lad.marshalUs,
		mRPCNullRTT:     lad.nullRTTUs,
		mRPCSelfPerCall: lad.nullRTTUs - lad.tcpFrameRTTUs128 - 2*(lad.sealUs128+lad.openUs128),
		mRPCSelfNsPerB:  lad.echoNsB - lad.tcpFrameNsB - lad.sealNsB - lad.openNsB,
		mVirtueOverhead: lad.virtueOverheadUs, mUnixfsSmallOp: lad.unixfsSmallUs,
		mUnixfsWriteNsB: lad.unixfsWriteNsB, mUnixfsReadNsB: lad.unixfsReadNsB,
		mVolumeWriteNsB: lad.volWriteNsB, mVolumeReadNsB: lad.volReadNsB,
		mVolumeSmallMut: lad.volSmallMutUs, mVolumeSerialize: lad.volSerialNsB,
		mSimParkResume: lad.parkResumeNs, mSimTimerEvent: lad.timerEventNs,
		mSimAllocsEvent: lad.simAllocsPerEvent, mNetsimDeliver: lad.netsimDeliverNs,
	} {
		rep.set(name, v)
	}
	rep.set(mBenchSampleEvery, float64(r.sp.sampleEvery))
	rep.set(mBenchFailRatio, float64(rep.Failed)/float64(rep.Attempted))

	spoPlain := secondsPerOp(plain, nil, 0)
	spoTraced := secondsPerOp(tracedRounds, nil, 0)
	if spoTraced > 0 && spoPlain > 0 {
		rep.set(mBenchTracedOpsPerS, 1/spoTraced)
		rep.set(mBenchTraceOverhead, 100*(spoTraced/spoPlain-1))
	}
	if sim, ok := r.w.(*simCell); ok {
		if len(sim.hours) > 0 {
			rep.set(mSimClientHours, sim.hours[0])
		}
		rep.Notes = append(rep.Notes, "real-path layers do not run on this workload: their span-derived metrics are 0; ladder rungs are measured as everywhere")
		return
	}

	var ops, tracedOps, tracedSec float64
	for _, rd := range plain {
		ops += rd.ops
	}
	for _, rd := range tracedRounds {
		tracedOps += rd.ops
		tracedSec += float64(rd.ns) / 1e9
	}
	ops += tracedOps
	perOp := func(ns int64) float64 { return float64(ns) / 1e3 / tracedOps }
	p50 := func(key string) float64 { return r.tr.get(key).samp.quantile(0.5) / 1e3 }

	// venus: counters cover the whole measured phase, spans the traced rounds.
	s := t.venus
	if s.Opens > 0 {
		rep.set(mVenusHitRatio, float64(s.Hits)/float64(s.Opens))
	}
	rep.set(mVenusEvictions, 1000*float64(s.Evictions)/ops)
	rep.set(mVenusFetchRPCs, float64(s.Fetches)/ops)
	rep.set(mVenusStoreRPCs, float64(s.Stores)/ops)
	rep.set(mVenusStatRPCs, float64(s.StatRPCs)/ops)
	rep.set(mVenusOtherRPCs, float64(s.OtherRPCs+s.Validations+s.BulkValidations)/ops)
	rep.set(mVenusRPCsPerOp, float64(t.rpcs())/ops)
	if s.Stores > 0 {
		rep.set(mVenusBreaksPerSt, float64(s.CallbackBreaks)/float64(s.Stores))
	}
	rep.set(mVenusBreakHandler, p50(spBreakHandle))
	for c, names := range map[class][2]string{
		clsCold: {mVenusColdP50, mVenusColdP99}, clsWarm: {mVenusWarmP50, mVenusWarmP99},
		clsStore: {mVenusStoreP50, mVenusStoreP99}, clsStat: {mVenusStatP50, mVenusStatP99},
	} {
		if len(lat[c]) >= minClassSamples {
			rep.set(names[0], lat[c].quantile(0.5)/1e3)
			rep.set(names[1], lat[c].quantile(0.99)/1e3)
			rep.sampleCount(names[0], len(lat[c]))
		}
	}
	var apiNs, apiOps int64
	for _, d := range r.drv {
		apiNs += d.apiNs
		apiOps += d.apiOps
	}
	callN, callNs := r.tr.sum(spRPCCall)
	e2eUs := float64(apiNs) / 1e3 / float64(apiOps) // mean time inside the FS call, timed ops
	rpcUs := perOp(callNs)
	rep.set(mVenusSelfUs, e2eUs-rpcUs)
	rep.set(mRPCCallUsPerOp, rpcUs)
	rep.set(mRPCStatusP50, p50(spRPCCall+".status"))
	rep.set(mRPCFetchP50, p50(spRPCCall+".fetch"))
	rep.set(mRPCStoreP50, p50(spRPCCall+".store"))

	// secure and wire: the ladder's unit costs over the recorded frames. An
	// RPC seals and opens twice (call, reply); every payload byte once each.
	calls, callBytes := float64(callN), float64(r.tr.callBytes.Load())
	secureUs := (calls*2*(lad.sealUs128+lad.openUs128) + callBytes*(lad.sealNsB+lad.openNsB)/1e3) / tracedOps
	wireUs := (calls*(2*lad.frameUs128+lad.marshalUs) + callBytes*lad.frameNsB/1e3) / tracedOps
	rep.set(mSecureEst, secureUs)
	rep.set(mWireEst, wireUs)

	// net
	netWriteUs := float64(r.tr.netWriteNs.Load()) / 1e3 / tracedOps
	rep.set(mNetWriteUs, netWriteUs)
	breakCalls, _ := r.tr.sum(spBreakWait) // callbacks are RPCs too, placed by the server
	if n := float64(callN + breakCalls); n > 0 {
		rep.set(mNetWriteCalls, float64(r.tr.netWrites.Load())/n)
		rep.set(mNetReadCalls, float64(r.tr.netReads.Load())/n)
	}
	var tracedUser float64
	for _, d := range r.drv {
		tracedUser += float64(d.tracedBytes)
	}
	if tracedUser > 0 {
		rep.set(mNetBytesPerUser, float64(r.tr.netWriteBytes.Load())/tracedUser)
	}

	// vice
	dispN, dispNs := r.tr.sum(spDispatch)
	_, commitNs := r.tr.sum(spCommit)
	_, syncNs := r.tr.sum(spSync)
	_, otherNs := r.tr.sum(spStoreOther)
	breakN, breakNs := r.tr.sum(spBreakWait)
	rep.set(mViceDispatchUs, perOp(dispNs))
	rep.set(mViceFetchP50, p50(spDispatch+".fetch"))
	rep.set(mViceStoreP50, p50(spDispatch+".store"))
	rep.set(mViceStatusP50, p50(spDispatch+".status"))
	rep.set(mViceSelfUs, perOp(dispNs-commitNs-syncNs-otherNs-breakNs))
	rep.set(mViceBreakWait, p50(spBreakWait))
	if tracedSec > 0 {
		rep.set(mViceCallsPerS, float64(dispN)/tracedSec)
	}
	rep.set(mViceMaxConc, float64(r.tr.maxActive.Load()))

	// store, walstore, fs
	commit, sync := r.tr.get(spCommit), r.tr.get(spSync)
	ckpt := r.tr.get(spCheckpoint)
	app, fsy := r.tr.get(spAppend), r.tr.get(spFsync)
	otherN, _ := r.tr.sum(spStoreOther)
	muts := float64(commit.n + otherN)
	rep.set(mStoreCommitP50, commit.samp.quantile(0.5)/1e3)
	rep.set(mStoreSyncP50, sync.samp.quantile(0.5)/1e3)
	rep.set(mStoreSyncP99, sync.samp.quantile(0.99)/1e3)
	rep.set(mStoreCheckpoints, float64(ckpt.n))
	rep.set(mStoreCkptMs, float64(ckpt.ns)/1e6)
	if muts > 0 {
		rep.set(mWalSelfUs, float64(commitNs+syncNs+otherNs-app.ns-fsy.ns)/1e3/muts)
		rep.set(mFSAppendsPerMut, float64(app.n)/muts)
		rep.set(mFSFsyncsPerMut, float64(fsy.n)/muts)
	}
	if t.appends > 0 {
		rep.set(mWalBytesPerMut, float64(t.logBytes)/float64(t.appends))
	}
	rep.set(mFSAppendP50, app.samp.quantile(0.5)/1e3)
	rep.set(mFSFsyncP50, fsy.samp.quantile(0.5)/1e3)
	rep.set(mFSDiskPerUser, diskPerUser)
	var wall float64
	for _, rd := range r.rounds {
		wall += float64(rd.ns) / 1e9
	}
	rep.set(mBenchMBPerS, userBytes/1e6/wall)

	// Reconciliation. An op's time is venus's own plus its RPCs; an RPC's is
	// the server's dispatch plus transport; dispatch splits exactly into
	// vice's own time, the store and the wait for callback breaks. Transport
	// is the part seen only from outside: the ladder's estimates of sealing,
	// framing, the loopback round trip and the rpc layer's own work stand in
	// for it, and what they do not cover is reported, not hidden.
	transportUs := rpcUs - perOp(dispNs)
	rep.set(mRPCUnexplained, transportUs-secureUs-wireUs-netWriteUs)
	loopbackUs := (calls*(lad.tcpFrameRTTUs128-2*lad.frameUs128) + callBytes*(lad.tcpFrameNsB-lad.frameNsB)/1e3) / tracedOps
	rpcSelfUs := (calls*rep.Metrics[mRPCSelfPerCall].Value + callBytes*rep.Metrics[mRPCSelfNsPerB].Value/1e3) / tracedOps
	// Every fsync (and every wait for a callback break) idles both cores for
	// hundreds of microseconds; the reply after it starts from parked
	// threads. The call-after-fsync rung prices one such round trip.
	wakeUs := float64(fsy.n+breakN) * (lad.rttAfterFsyncUs - lad.nullRTTUs) / tracedOps
	remainder := transportUs - secureUs - wireUs - loopbackUs - rpcSelfUs - wakeUs
	if e2eUs > 0 {
		rep.set(mBenchExplained, 100*(1-abs(remainder)/e2eUs))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"reconciliation per op (us): e2e %.2f = venus %.2f + vice %.2f + store %.2f + break wait %.2f + transport %.2f; "+
			"transport est: secure %.2f + wire %.2f + loopback %.2f + rpc self %.2f + wake-ups after fsync %.2f, remainder %.2f (scheduling and estimate error)",
		e2eUs, e2eUs-rpcUs, rep.Metrics[mViceSelfUs].Value, perOp(commitNs+syncNs+otherNs), perOp(breakNs),
		transportUs, secureUs, wireUs, loopbackUs, rpcSelfUs, wakeUs, remainder))
	if r.sp.sampleEvery > 1 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("API spans and latencies cover one op in %d on this workload", r.sp.sampleEvery))
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
