package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"itcfs/internal/virtue"
)

// workload is one traffic mix. The runner builds the cell it asks for,
// calls setup (populate and warm up, untimed), then alternates prepare
// (generate the next round's ops from the seed, untimed) and execute (issue
// them, timed) until the measured time is used up.
type workload interface {
	spec() wlSpec
	setup(r *run) error
	prepare(r *run, round int)
	// execute runs the prepared round and returns how many ops it completed
	// (on sim_cell, simulated client-hours).
	execute(r *run) float64
	// pinned returns the violated invariants of this workload's design —
	// counts that must hold exactly whatever the machine's speed.
	pinned(r *run, t *totals) []string
}

// wlSpec is what a workload needs from the runner.
type wlSpec struct {
	users       []string  // each gets a volume at /vice/usr/<user>
	clients     []cliSpec // workstations, in op.cli order
	maxFileSize int       // largest file the workload stores
	sampleEvery int       // time one op in this many (1 = every op)
	ckptEvery   int       // CheckpointStore after every this many rounds (0 = never)
	primary     class     // the class op_p50_us reports
	noCell      bool      // sim_cell: no real server at all
}

type cliSpec struct {
	user       string
	cacheBytes int64
}

type roundStat struct {
	ops    float64
	ns     int64
	userNs int64 // process user CPU during the round
	sysNs  int64 // and system CPU
	rssKiB int64 // resident set when the round ended
	traced bool
}

// run is one set-up instance of a workload: its cell, clients and models.
type run struct {
	w      workload
	sp     wlSpec
	seed   int64
	tmp    string // parent of every data dir of this run
	cell   *cell
	op     *client   // the operator's workstation (admin, never measured)
	drv    []*driver // per measured client: content buffer, recorder, model
	tr     *tracer
	opSeq  atomic.Uint64
	ops    []op // the prepared round of a sequential workload
	genSum *seqHash
	side   map[string]fileState // files stored by sideWrite's throwaway clients

	rounds []roundStat
	ckptNs samples // how long each CheckpointStore took
	// atCkpt is the process's usage, and the ops done, right after the last
	// checkpoint: allocation per op is taken over whole checkpoint periods,
	// or a run that ends just before its fourth checkpoint would report a
	// percent or two less than one that ends just after.
	atCkpt       usage
	opsAtCkpt    float64
	diskAtCkpt   int64 // bytes written to disk so far, and
	storedAtCkpt int64 // payload bytes stored so far, at that same point
}

// driver is the per-client driving state; one goroutine owns it at a time.
type driver struct {
	cl          *client
	content     *content
	files       map[string]fileState // what this client's stores have made true
	lat         [nClasses]samples
	seen        map[uint32]uint64 // last Version a Stat of key returned
	n           int64             // ops issued (for latency sampling)
	attempted   int64
	failed      int64
	fetched     int64 // payload bytes read through ReadFile
	stored      int64 // payload bytes written through WriteFile
	tracedBytes int64 // payload bytes moved while the interposers were on
	apiNs       int64 // traced: time inside timed API spans
	apiOps      int64 // traced: ops those spans cover
	firstErr    error
}

var tmpSeq atomic.Int64

// newRun builds the cell and clients for w and runs its setup.
func newRun(w workload, seed int64, tmp string, tr *tracer) (*run, error) {
	r := &run{w: w, sp: w.spec(), seed: seed, tmp: tmp, tr: tr, genSum: newSeqHash(), side: make(map[string]fileState)}
	if r.sp.sampleEvery == 0 {
		r.sp.sampleEvery = 1
	}
	if !r.sp.noCell {
		dir := filepath.Join(tmp, fmt.Sprintf("data-%d", tmpSeq.Add(1)))
		c, err := startCell(dir, tr)
		if err != nil {
			return nil, err
		}
		r.cell = c
		if r.op, err = c.addClient(opUser, 0); err != nil {
			return r, err
		}
		for _, u := range r.sp.users {
			if err := c.addUser(r.op, u); err != nil {
				return r, err
			}
		}
		base := newContent(seed, r.sp.maxFileSize)
		for i, cs := range r.sp.clients {
			cl, err := c.addClient(cs.user, cs.cacheBytes)
			if err != nil {
				return r, err
			}
			ct := base
			if i > 0 {
				ct = base.fork()
			}
			r.drv = append(r.drv, &driver{cl: cl, content: ct,
				files: make(map[string]fileState), seen: make(map[uint32]uint64)})
		}
	}
	if err := w.setup(r); err != nil {
		return r, fmt.Errorf("setup: %w", err)
	}
	for _, d := range r.drv {
		if d.failed > 0 {
			return r, fmt.Errorf("setup: %d of %d ops failed (first: %v)", d.failed, d.attempted, d.firstErr)
		}
		// Setup ops are not part of the measurement.
		*d = driver{cl: d.cl, content: d.content, files: d.files, seen: d.seen}
	}
	return r, nil
}

// teardown stops the cell and removes its data.
func (r *run) teardown() {
	if r.cell != nil {
		_ = r.cell.close() // shutting down: nothing left to do with the error
		_ = os.RemoveAll(r.cell.dir)
		r.cell = nil
	}
}

// emit appends one generated op to the prepared round and folds it into the
// sequence hash.
func (r *run) emit(o op) {
	r.genSum.note(&o)
	r.ops = append(r.ops, o)
}

// do issues one op through the client's virtue.FS, times it if sampled,
// checks the result against what the generator said it must be, and updates
// the model with what is now true.
func (r *run) do(o *op) {
	d := r.drv[o.cli]
	fs := d.cl.fs
	d.attempted++
	d.n++
	timed := r.sp.sampleEvery == 1 || d.n%int64(r.sp.sampleEvery) == 0
	var buf []byte
	if o.kind == opWrite {
		buf = d.content.bytesOf(o.key, o.version, int(o.size))
	}
	on := r.tr != nil && r.tr.on.Load()
	traced := timed && on
	var spanID uint64
	if traced {
		spanID = r.tr.newID()
		d.cl.curOp.Store(r.opSeq.Add(1))
		d.cl.curAPI.Store(spanID)
	}
	var t0, t1 int64
	if timed {
		t0 = now()
	}
	var (
		err  error
		data []byte
		st   virtue.Stat
		ents []virtue.DirEntry
	)
	switch o.kind {
	case opRead:
		data, err = fs.ReadFile(nil, o.path)
	case opWrite:
		err = fs.WriteFile(nil, o.path, buf)
	case opStat:
		st, err = fs.Stat(nil, o.path)
	case opReadDir:
		ents, err = fs.ReadDir(nil, o.path)
	case opMkdir:
		err = fs.Mkdir(nil, o.path, 0o755)
	case opRemove:
		err = fs.Remove(nil, o.path)
	case opRemoveDir:
		err = fs.RemoveDir(nil, o.path)
	}
	if timed {
		t1 = now()
		d.lat[o.class] = append(d.lat[o.class], t1-t0)
	}
	if traced {
		r.tr.record(spanID, 0, d.cl.curOp.Load(), spAPI, classNames[o.class], "venus", t0, t1)
		d.apiNs += t1 - t0
		d.apiOps++
	}
	ok := err == nil
	if ok {
		switch o.kind {
		case opRead:
			d.fetched += int64(len(data))
			if on {
				d.tracedBytes += int64(len(data))
			}
			ok = d.content.check(data, o.key, o.version, int(o.size), o.full)
		case opWrite:
			d.stored += int64(len(buf))
			if on {
				d.tracedBytes += int64(len(buf))
			}
			d.files[o.path] = fileState{o.key, o.version, o.size}
		case opStat:
			ok = st.Size == int64(o.size) && (!o.newer || st.Version > d.seen[o.key])
			d.seen[o.key] = st.Version
		case opReadDir:
			ok = len(ents) == int(o.size)
		case opRemove:
			delete(d.files, o.path)
		}
	}
	if err != nil || !ok {
		d.failed++
		if d.firstErr == nil {
			if err == nil {
				err = fmt.Errorf("wrong result")
			}
			d.firstErr = fmt.Errorf("%s %s: %w", kindNames[o.kind], o.path, err)
		}
	}
}

var kindNames = [...]string{"read", "write", "stat", "readdir", "mkdir", "remove", "rmdir"}

// runOps is execute for a workload whose round is one sequential op list.
func (r *run) runOps() float64 {
	for i := range r.ops {
		r.do(&r.ops[i])
	}
	return float64(len(r.ops))
}

// measure alternates prepare and execute until seconds of wall time have
// passed (whole rounds only, at least three), checkpointing on the
// workload's cadence. In a traced run odd rounds have the interposers on and
// even rounds off.
func (r *run) measure(seconds float64) {
	start := now()
	for i := 0; ; i++ {
		r.ops = r.ops[:0]
		r.w.prepare(r, i)
		traced := r.tr != nil && i%2 == 1
		if r.tr != nil {
			r.tr.on.Store(traced)
		}
		u0, s0 := cpuNow()
		t0 := now()
		n := r.w.execute(r)
		t1 := now()
		u1, s1 := cpuNow()
		rd := roundStat{ops: n, ns: t1 - t0, userNs: u1 - u0, sysNs: s1 - s0, rssKiB: residentKiB(), traced: traced}
		if r.tr != nil {
			r.tr.on.Store(false)
		}
		r.rounds = append(r.rounds, rd)
		if r.sp.ckptEvery > 0 && (i+1)%r.sp.ckptEvery == 0 {
			if r.tr != nil {
				r.tr.on.Store(true)
			}
			c0 := now()
			if err := r.cell.srv.CheckpointStore(); err != nil {
				r.drv[0].failed++
				r.drv[0].attempted++
				if r.drv[0].firstErr == nil {
					r.drv[0].firstErr = fmt.Errorf("checkpoint: %w", err)
				}
			}
			r.ckptNs = append(r.ckptNs, now()-c0)
			if r.tr != nil {
				r.tr.on.Store(false)
			}
			r.atCkpt, r.opsAtCkpt = readUsage(), 0
			for _, rd := range r.rounds {
				r.opsAtCkpt += rd.ops
			}
			r.diskAtCkpt, r.storedAtCkpt = r.cell.disk.diskBytes(), 0
			for _, d := range r.drv {
				r.storedAtCkpt += d.stored
			}
		}
		if float64(now()-start) >= seconds*1e9 && i >= 2 {
			return
		}
	}
}

// secondsPerOp is the run's robust unit cost: the median over rounds of a
// round's time per op, plus the median checkpoint time spread over the ops of
// a checkpoint period. Periodic work is included at its fixed cadence; a stall
// that hits one round does not move the figure.
func secondsPerOp(rounds []roundStat, ckptNs samples, ckptEvery int) float64 {
	var per []float64
	var ops float64
	for _, rd := range rounds {
		if rd.ops > 0 {
			per = append(per, float64(rd.ns)/1e9/rd.ops)
			ops += rd.ops
		}
	}
	if len(per) == 0 {
		return 0
	}
	s := medianF(per)
	if ckptEvery > 0 && len(ckptNs) > 0 {
		opsPerPeriod := ops / float64(len(per)) * float64(ckptEvery)
		s += ckptNs.sorted().quantile(0.5) / 1e9 / opsPerPeriod
	}
	return s
}
