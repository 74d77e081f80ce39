package main

import (
	"fmt"
	"math/rand"
	"sync"

	"itcfs/internal/harness"
)

// The six workloads. Each is a generator: it turns (seed, round) into ops
// whose cost class is fixed by construction — which opens must miss, which
// stats must travel — so the latency classes need no guessing and Venus's
// own counters can check them afterwards. Sizes are frozen so that a round
// takes 0.15–1.5 s on the 2-core sandbox at the seed commit and ten seconds
// hold enough rounds for a steady median.

// sizes are the frozen dimensions of the workloads. fullSizes is the
// benchmark; miniSizes is the same shapes at tens of ops, for the tests.
type sizes struct {
	andrewFiles, andrewPubFiles, andrewImage, andrewCkptEvery int

	bulkFiles, bulkSize, bulkRoundOps, bulkCkptEvery int
	bulkCache                                        int64

	warmFiles, warmDirs, warmRoundOps int

	churnFiles int

	mixAFiles, mixARoundOps, mixBBig, mixBRoundOps int
	mixBCache                                      int64

	simClients     int
	simClientHours float64 // 0 = do not pin

	pins map[string]pin // per real-path workload; nil = do not pin
}

// pin holds a workload's two exact costs at the seed commit. They do not
// depend on the seed or the machine, so a run that exceeds one (by more than
// pinSlack, which absorbs a path one digit longer) has made the program dearer
// and fails; fewer passes.
type pin struct {
	rpcsPerOp       float64 // Venus RPCs per op
	diskPerUserByte float64 // bytes written through store.FS per payload byte stored
}

const pinSlack = 0.001

var fullSizes = sizes{
	andrewFiles: 70, andrewPubFiles: 200, andrewImage: 200 << 10, andrewCkptEvery: 10,
	// 12 x 4 MiB keeps the volume under the 64 MiB a checkpoint can hold
	// per volume (README, known defect c).
	bulkFiles: 12, bulkSize: 4 << 20, bulkRoundOps: 8, bulkCkptEvery: 16, bulkCache: 16 << 20,
	warmFiles: 1000, warmDirs: 20, warmRoundOps: 50_000,
	churnFiles: 200,
	mixAFiles:  64, mixARoundOps: 400, mixBBig: 400, mixBRoundOps: 600, mixBCache: 4 << 20,
	simClients: 500,
	// Virtual time is deterministic, so one round's simulated work is exact
	// on every machine; a different value means the simulated system
	// behaved differently.
	simClientHours: 12355.952,
	pins: map[string]pin{
		wlAndrewSmall: {500.0 / 780, 1.4997},
		wlBulkStream:  {1.2500, 1.3751},
		wlSharedChurn: {0.7500, 1.0712},
		wlMixedRW2C:   {1.0000, 1.0361},
	},
}

var miniSizes = sizes{
	andrewFiles: 10, andrewPubFiles: 10, andrewImage: 8 << 10, andrewCkptEvery: 2,
	bulkFiles: 5, bulkSize: 256 << 10, bulkRoundOps: 4, bulkCkptEvery: 2, bulkCache: 1 << 20,
	warmFiles: 40, warmDirs: 4, warmRoundOps: 200,
	churnFiles: 10,
	mixAFiles:  8, mixARoundOps: 20, mixBBig: 40, mixBRoundOps: 30, mixBCache: 2 << 20,
	simClients: 20,
}

func newWorkload(name string, seed int64, z sizes) (workload, error) {
	rng := rand.New(rand.NewSource(seed*0x9e3779b97f4a7c + int64(len(name))))
	switch name {
	case wlAndrewSmall:
		return &andrewSmall{rng: rng, z: z}, nil
	case wlBulkStream:
		return &bulkStream{rng: rng, z: z}, nil
	case wlWarmReads:
		return &warmReads{rng: rng, z: z}, nil
	case wlSharedChurn:
		return &sharedChurn{rng: rng, z: z}, nil
	case wlMixedRW2C:
		return &mixedRW{rng: rng, z: z}, nil
	case wlSimCell:
		return &simCell{z: z}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sideWrite stores files as user from a workstation of its own that is
// closed again afterwards: data the measured clients have never seen.
func (r *run) sideWrite(user string, ops []op) error {
	cl, err := r.cell.addClient(user, 0)
	if err != nil {
		return err
	}
	defer cl.peer.Close()
	d := &driver{cl: cl, content: r.drv[0].content.fork(), files: r.side, seen: map[uint32]uint64{}}
	r.drv = append(r.drv, d)
	for i := range ops {
		ops[i].cli = uint8(len(r.drv) - 1)
		r.do(&ops[i])
	}
	r.drv = r.drv[:len(r.drv)-1]
	if d.failed > 0 {
		return fmt.Errorf("side population as %s: %w", user, d.firstErr)
	}
	return nil
}

// andrew_small: the paper's five phases on the real stack, one client.

const (
	andrewDirs   = 5
	andrewWarmup = 2 // iterations run during setup; trees live two iterations
)

type andrewSmall struct {
	rng      *rand.Rand
	z        sizes
	srcPath  []string
	srcSize  []int32
	pubPath  []string
	pubSize  []int32
	nextIter int
}

func (w *andrewSmall) spec() wlSpec {
	return wlSpec{
		users:       []string{"andy", "pub"},
		clients:     []cliSpec{{user: "andy"}},
		maxFileSize: w.z.andrewImage,
		ckptEvery:   w.z.andrewCkptEvery,
		primary:     clsStore,
	}
}

func (w *andrewSmall) setup(r *run) error {
	w.srcPath, w.srcSize = make([]string, w.z.andrewFiles), make([]int32, w.z.andrewFiles)
	w.pubPath, w.pubSize = make([]string, w.z.andrewPubFiles), make([]int32, w.z.andrewPubFiles)
	pub := make([]op, 0, len(w.pubPath)+1)
	pub = append(pub, op{kind: opMkdir, class: clsOther, path: "/vice/usr/pub/lib"})
	for i := range w.pubPath {
		w.pubPath[i] = fmt.Sprintf("/vice/usr/pub/lib/h%03d", i)
		w.pubSize[i] = int32(512 + 1024*i/len(w.pubPath))
		pub = append(pub, op{kind: opWrite, class: clsStore, path: w.pubPath[i],
			key: uint32(100 + i), version: 1, size: w.pubSize[i]})
	}
	if err := r.sideWrite("pub", pub); err != nil {
		return err
	}
	r.ops = r.ops[:0]
	r.emit(op{kind: opMkdir, class: clsOther, path: "/vice/usr/andy/src"})
	for k := 0; k < andrewDirs; k++ {
		r.emit(op{kind: opMkdir, class: clsOther, path: fmt.Sprintf("/vice/usr/andy/src/d%d", k)})
	}
	for j := range w.srcPath {
		w.srcPath[j] = fmt.Sprintf("/vice/usr/andy/src/d%d/s%02d", j%andrewDirs, j)
		w.srcSize[j] = int32(1536 + 3072*j/len(w.srcPath))
	}
	// The sizes are the same ladder under every seed, so bytes per op do not
	// depend on it; the seed decides which file gets which.
	w.rng.Shuffle(len(w.srcSize), func(a, b int) { w.srcSize[a], w.srcSize[b] = w.srcSize[b], w.srcSize[a] })
	for j := range w.srcPath {
		r.emit(op{kind: opWrite, class: clsStore, path: w.srcPath[j],
			key: uint32(400 + j), version: 1, size: w.srcSize[j]})
	}
	r.runOps()
	for i := 0; i < andrewWarmup; i++ {
		r.ops = r.ops[:0]
		w.prepare(r, i)
		r.runOps()
	}
	return nil
}

// prepare generates one iteration: MakeDir, Copy, ScanDir, ReadAll, Make,
// then removal of the tree from two iterations back.
func (w *andrewSmall) prepare(r *run, _ int) {
	andrewFiles, andrewImage := w.z.andrewFiles, int32(w.z.andrewImage)
	it := w.nextIter
	w.nextIter++
	tree := func(i int) string { return fmt.Sprintf("/vice/usr/andy/t%d", i) }
	dir := func(i, k int) string { return fmt.Sprintf("%s/d%d", tree(i), k) }
	file := func(i, j int) string { return fmt.Sprintf("%s/f%02d", dir(i, j%andrewDirs), j) }
	obj := func(i, j int) string { return fmt.Sprintf("%s/o%02d", dir(i, j%andrewDirs), j) }
	image := func(i int) string { return tree(i) + "/a.out" }
	base := uint32(1000 + it*400)
	objSize := make([]int32, andrewFiles)
	for j := range objSize {
		objSize[j] = int32(2048 + 4096*j/andrewFiles)
	}
	w.rng.Shuffle(len(objSize), func(a, b int) { objSize[a], objSize[b] = objSize[b], objSize[a] })

	// MakeDir
	r.emit(op{kind: opMkdir, class: clsOther, path: tree(it)})
	for k := 0; k < andrewDirs; k++ {
		r.emit(op{kind: opMkdir, class: clsOther, path: dir(it, k)})
	}
	// Copy
	for j := 0; j < andrewFiles; j++ {
		r.emit(op{kind: opRead, class: clsWarm, full: true, path: w.srcPath[j],
			key: uint32(400 + j), version: 1, size: w.srcSize[j]})
		r.emit(op{kind: opWrite, class: clsStore, path: file(it, j),
			key: base + uint32(j), version: 1, size: w.srcSize[j]})
	}
	// ScanDir: the new tree is answered from cache, the public tree is not.
	r.emit(op{kind: opReadDir, class: clsOther, path: tree(it), size: andrewDirs})
	for k := 0; k < andrewDirs; k++ {
		r.emit(op{kind: opReadDir, class: clsOther, path: dir(it, k), size: int32(andrewFiles / andrewDirs)})
	}
	for j := 0; j < andrewFiles; j++ {
		r.emit(op{kind: opStat, class: clsOther, path: file(it, j), key: base + uint32(j), size: w.srcSize[j]})
	}
	for i := range w.pubPath {
		r.emit(op{kind: opStat, class: clsStat, path: w.pubPath[i], key: uint32(100 + i), size: w.pubSize[i]})
	}
	// ReadAll
	for j := 0; j < andrewFiles; j++ {
		r.emit(op{kind: opRead, class: clsWarm, full: true, path: file(it, j),
			key: base + uint32(j), version: 1, size: w.srcSize[j]})
	}
	// Make
	for j := 0; j < andrewFiles; j++ {
		r.emit(op{kind: opRead, class: clsWarm, full: true, path: file(it, j),
			key: base + uint32(j), version: 1, size: w.srcSize[j]})
		r.emit(op{kind: opWrite, class: clsStore, path: obj(it, j),
			key: base + 100 + uint32(j), version: 1, size: objSize[j]})
	}
	r.emit(op{kind: opWrite, class: clsStore, path: image(it), key: base + 200, version: 1, size: andrewImage})
	// Clean
	if old := it - andrewWarmup; old >= 0 {
		for j := 0; j < andrewFiles; j++ {
			r.emit(op{kind: opRemove, class: clsOther, path: file(old, j)})
			r.emit(op{kind: opRemove, class: clsOther, path: obj(old, j)})
		}
		r.emit(op{kind: opRemove, class: clsOther, path: image(old)})
		for k := 0; k < andrewDirs; k++ {
			r.emit(op{kind: opRemoveDir, class: clsOther, path: dir(old, k)})
		}
		r.emit(op{kind: opRemoveDir, class: clsOther, path: tree(old)})
	}
}

func (w *andrewSmall) execute(r *run) float64 { return r.runOps() }

func (w *andrewSmall) pinned(r *run, t *totals) []string {
	var bad []string
	iters := int64(len(r.rounds))
	if want := iters * int64(w.z.andrewPubFiles); t.venus.StatRPCs != want {
		bad = append(bad, fmt.Sprintf("status RPCs %d, want %d (one per Stat of the public tree)", t.venus.StatRPCs, want))
	}
	if want := iters * int64(2*w.z.andrewFiles+1); t.venus.Stores != want {
		bad = append(bad, fmt.Sprintf("store RPCs %d, want %d", t.venus.Stores, want))
	}
	if t.fsyncsPerMut() != 1 {
		bad = append(bad, fmt.Sprintf("fsyncs per mutation %.4f, want exactly 1 with a single writer", t.fsyncsPerMut()))
	}
	return bad
}

// bulk_stream: a few large files cycled through a cache that cannot hold
// them.

type bulkStream struct {
	rng     *rand.Rand
	z       sizes
	path    []string
	version []uint32
	order   []int
	n       int // position in the cyclic sequence
}

func (w *bulkStream) spec() wlSpec {
	return wlSpec{
		users:       []string{"bulk"},
		clients:     []cliSpec{{user: "bulk", cacheBytes: w.z.bulkCache}},
		maxFileSize: w.z.bulkSize,
		ckptEvery:   w.z.bulkCkptEvery, // 16 rounds = 32 stores
		primary:     clsCold,
	}
}

func (w *bulkStream) setup(r *run) error {
	bulkSize := int32(w.z.bulkSize)
	w.order = w.rng.Perm(w.z.bulkFiles)
	w.path, w.version = make([]string, w.z.bulkFiles), make([]uint32, w.z.bulkFiles)
	r.ops = r.ops[:0]
	r.emit(op{kind: opMkdir, class: clsOther, path: "/vice/usr/bulk/big"})
	for i := range w.path {
		w.path[i] = fmt.Sprintf("/vice/usr/bulk/big/b%02d", i)
		w.version[i] = 1
		r.emit(op{kind: opWrite, class: clsStore, path: w.path[i], key: uint32(i), version: 1, size: bulkSize})
	}
	// Warm-up: one pass over the working set, every open a miss already.
	for _, i := range w.order {
		r.emit(op{kind: opRead, class: clsCold, full: true, path: w.path[i], key: uint32(i), version: 1, size: bulkSize})
	}
	r.runOps()
	return nil
}

// prepare generates the next eight positions of the cycle: the files in a
// fixed seed-permuted order, one position in four an overwrite (the slot
// shifts each lap so every file is rewritten in turn), the rest fetches.
func (w *bulkStream) prepare(r *run, _ int) {
	bulkFiles, bulkSize := w.z.bulkFiles, int32(w.z.bulkSize)
	for k := 0; k < w.z.bulkRoundOps; k++ {
		i := w.order[w.n%bulkFiles]
		lap := w.n / bulkFiles
		if (w.n+lap)%4 == 0 {
			w.version[i]++
			r.emit(op{kind: opWrite, class: clsStore, path: w.path[i], key: uint32(i), version: w.version[i], size: bulkSize})
		} else {
			r.emit(op{kind: opRead, class: clsCold, full: w.n%8 == 1, path: w.path[i],
				key: uint32(i), version: w.version[i], size: bulkSize})
		}
		w.n++
	}
}

func (w *bulkStream) execute(r *run) float64 { return r.runOps() }

func (w *bulkStream) pinned(r *run, t *totals) []string {
	var bad []string
	if t.venus.Hits != 0 {
		bad = append(bad, fmt.Sprintf("%d cache hits, want 0 (every open must miss)", t.venus.Hits))
	}
	if t.fsyncsPerMut() != 1 {
		bad = append(bad, fmt.Sprintf("fsyncs per mutation %.4f, want exactly 1 with a single writer", t.fsyncsPerMut()))
	}
	return bad
}

// warm_reads: everything below Venus is idle.

const (
	warmSize        = 4 << 10
	warmSampleEvery = 16
)

type warmReads struct {
	rng  *rand.Rand
	z    sizes
	zipf *rand.Zipf
	path []string
	perm []int // popularity rank -> file
}

func (w *warmReads) spec() wlSpec {
	return wlSpec{
		users:       []string{"warm"},
		clients:     []cliSpec{{user: "warm"}},
		maxFileSize: warmSize,
		sampleEvery: warmSampleEvery,
		primary:     clsWarm,
	}
}

func (w *warmReads) setup(r *run) error {
	warmDirs := w.z.warmDirs
	w.zipf = rand.NewZipf(w.rng, 1.1, 1, uint64(w.z.warmFiles-1))
	w.perm = w.rng.Perm(w.z.warmFiles)
	w.path = make([]string, w.z.warmFiles)
	r.ops = r.ops[:0]
	r.emit(op{kind: opMkdir, class: clsOther, path: "/vice/usr/warm/w"})
	for k := 0; k < warmDirs; k++ {
		r.emit(op{kind: opMkdir, class: clsOther, path: fmt.Sprintf("/vice/usr/warm/w/d%02d", k)})
	}
	for i := range w.path {
		w.path[i] = fmt.Sprintf("/vice/usr/warm/w/d%02d/f%03d", i%warmDirs, i)
		r.emit(op{kind: opWrite, class: clsStore, path: w.path[i], key: uint32(i), version: 1, size: warmSize})
	}
	// Warm-up: first pass over the working set.
	for i := range w.path {
		r.emit(op{kind: opRead, class: clsWarm, full: true, path: w.path[i], key: uint32(i), version: 1, size: warmSize})
	}
	r.runOps()
	return nil
}

func (w *warmReads) prepare(r *run, _ int) {
	for k := 0; k < w.z.warmRoundOps; k++ {
		i := w.perm[w.zipf.Uint64()]
		if w.rng.Intn(5) == 0 {
			r.emit(op{kind: opStat, class: clsOther, path: w.path[i], key: uint32(i), size: warmSize})
		} else {
			r.emit(op{kind: opRead, class: clsWarm, full: k%64 == 0, path: w.path[i], key: uint32(i), version: 1, size: warmSize})
		}
	}
}

func (w *warmReads) execute(r *run) float64 { return r.runOps() }

func (w *warmReads) pinned(r *run, t *totals) []string {
	var bad []string
	if n := t.rpcs(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d RPCs, want 0 (the working set is cached under live callbacks)", n))
	}
	if t.venus.Hits != t.venus.Opens {
		bad = append(bad, fmt.Sprintf("%d hits of %d opens, want all", t.venus.Hits, t.venus.Opens))
	}
	return bad
}

// shared_churn: a writer and a reader alternate on one volume.

const churnSize = 2 << 10

type sharedChurn struct {
	rng     *rand.Rand
	z       sizes
	path    []string
	version []uint32
}

// churnSizeOf makes consecutive versions differ in length, so a Stat that
// reports the previous version is caught by its size alone.
func churnSizeOf(version uint32) int32 { return churnSize + 64*int32(version%2) }

func (w *sharedChurn) spec() wlSpec {
	return wlSpec{
		users:       []string{"wri", "rdr"},
		clients:     []cliSpec{{user: "wri"}, {user: "rdr"}},
		maxFileSize: churnSize + 64,
		primary:     clsStore,
	}
}

func (w *sharedChurn) setup(r *run) error {
	w.path, w.version = make([]string, w.z.churnFiles), make([]uint32, w.z.churnFiles)
	r.ops = r.ops[:0]
	r.emit(op{kind: opMkdir, class: clsOther, path: "/vice/usr/wri/sh"})
	for i := range w.path {
		w.path[i] = fmt.Sprintf("/vice/usr/wri/sh/c%03d", i)
		w.version[i] = 1
		r.emit(op{kind: opWrite, class: clsStore, path: w.path[i], key: uint32(i), version: 1, size: churnSizeOf(1)})
	}
	for i := range w.path {
		r.emit(op{kind: opRead, cli: 1, class: clsCold, full: true, path: w.path[i], key: uint32(i), version: 1, size: churnSizeOf(1)})
		r.emit(op{kind: opStat, cli: 1, class: clsOther, path: w.path[i], key: uint32(i), size: churnSizeOf(1)})
	}
	r.runOps()
	return nil
}

// prepare generates one pass over the files in a fresh order; per file: the
// reader reads it warm, the writer overwrites it (the server breaks the
// reader's callback before replying), the reader stats it (invalidated, so
// a status RPC that must report the new version) and re-reads it (a fetch
// that must return the new bytes).
func (w *sharedChurn) prepare(r *run, _ int) {
	for _, i := range w.rng.Perm(w.z.churnFiles) {
		v := w.version[i]
		k := uint32(i)
		r.emit(op{kind: opRead, cli: 1, class: clsWarm, full: true, path: w.path[i], key: k, version: v, size: churnSizeOf(v)})
		v++
		w.version[i] = v
		r.emit(op{kind: opWrite, cli: 0, class: clsStore, path: w.path[i], key: k, version: v, size: churnSizeOf(v)})
		r.emit(op{kind: opStat, cli: 1, class: clsStat, newer: true, path: w.path[i], key: k, size: churnSizeOf(v)})
		r.emit(op{kind: opRead, cli: 1, class: clsCold, full: true, path: w.path[i], key: k, version: v, size: churnSizeOf(v)})
	}
}

func (w *sharedChurn) execute(r *run) float64 { return r.runOps() }

func (w *sharedChurn) pinned(r *run, t *totals) []string {
	var bad []string
	stores := t.venus.Stores
	if t.venus.CallbackBreaks != stores {
		bad = append(bad, fmt.Sprintf("%d callback breaks for %d stores, want one each", t.venus.CallbackBreaks, stores))
	}
	if t.venus.Fetches != stores || t.venus.StatRPCs != stores {
		bad = append(bad, fmt.Sprintf("%d fetches and %d status RPCs for %d stores, want one each", t.venus.Fetches, t.venus.StatRPCs, stores))
	}
	if t.fsyncsPerMut() != 1 {
		bad = append(bad, fmt.Sprintf("fsyncs per mutation %.4f, want exactly 1 with a single writer", t.fsyncsPerMut()))
	}
	return bad
}

// mixed_rw_2c: two clients, two goroutines, two connections, two volumes.

const (
	mixASize    = 4 << 10
	mixBBigSize = 64 << 10
	mixBSmall   = 4
)

type mixedRW struct {
	rng    *rand.Rand
	z      sizes
	aPath  []string
	aVer   []uint32
	bBig   []string
	bSmall [mixBSmall]string
	bVer   [mixBSmall]uint32
	bOrder []int
	bops   []op // B's prepared round
	an, bn int  // positions in A's and B's sequences
}

func (w *mixedRW) spec() wlSpec {
	return wlSpec{
		users:       []string{"mxa", "mxb"},
		clients:     []cliSpec{{user: "mxa"}, {user: "mxb", cacheBytes: w.z.mixBCache}},
		maxFileSize: mixBBigSize,
		primary:     clsCold,
	}
}

func (w *mixedRW) setup(r *run) error {
	w.bOrder = w.rng.Perm(w.z.mixBBig)
	w.aPath, w.aVer = make([]string, w.z.mixAFiles), make([]uint32, w.z.mixAFiles)
	w.bBig = make([]string, w.z.mixBBig)
	r.ops = r.ops[:0]
	r.emit(op{kind: opMkdir, class: clsOther, path: "/vice/usr/mxa/a"})
	for i := range w.aPath {
		w.aPath[i] = fmt.Sprintf("/vice/usr/mxa/a/f%02d", i)
		w.aVer[i] = 1
		r.emit(op{kind: opWrite, class: clsStore, path: w.aPath[i], key: uint32(i), version: 1, size: mixASize})
	}
	r.emit(op{kind: opMkdir, cli: 1, class: clsOther, path: "/vice/usr/mxb/big"})
	r.emit(op{kind: opMkdir, cli: 1, class: clsOther, path: "/vice/usr/mxb/s"})
	for i := range w.bBig {
		w.bBig[i] = fmt.Sprintf("/vice/usr/mxb/big/g%03d", i)
		r.emit(op{kind: opWrite, cli: 1, class: clsStore, path: w.bBig[i], key: uint32(1000 + i), version: 1, size: mixBBigSize})
	}
	for i := range w.bSmall {
		w.bSmall[i] = fmt.Sprintf("/vice/usr/mxb/s/h%d", i)
		w.bVer[i] = 1
		r.emit(op{kind: opWrite, cli: 1, class: clsStore, path: w.bSmall[i], key: uint32(2000 + i), version: 1, size: mixASize})
	}
	// B reads once round its cycle, so that from here on the cache holds
	// exactly the files furthest from being read again.
	for _, i := range w.bOrder {
		r.emit(op{kind: opRead, cli: 1, class: clsCold, full: true, path: w.bBig[i], key: uint32(1000 + i), version: 1, size: mixBBigSize})
	}
	// ... and rewrites its small files, which that pass evicted.
	for i := range w.bSmall {
		w.bVer[i]++
		r.emit(op{kind: opWrite, cli: 1, class: clsStore, path: w.bSmall[i], key: uint32(2000 + i), version: w.bVer[i], size: mixASize})
	}
	r.runOps()
	// Warm-up: a short round of the real thing.
	r.ops = r.ops[:0]
	w.prepareA(r, w.z.mixARoundOps/4)
	w.prepareB(r, w.z.mixBRoundOps/4)
	w.execute(r)
	return nil
}

func (w *mixedRW) prepareA(r *run, n int) {
	for k := 0; k < n; k++ {
		i := w.an % w.z.mixAFiles
		w.an++
		w.aVer[i]++
		r.emit(op{kind: opWrite, cli: 0, class: clsStore, path: w.aPath[i], key: uint32(i), version: w.aVer[i], size: mixASize})
	}
}

func (w *mixedRW) prepare(r *run, _ int) {
	w.prepareA(r, w.z.mixARoundOps)
	w.prepareB(r, w.z.mixBRoundOps)
}

// prepareB generates B's next n ops: four cold 64 KiB fetches (the files in
// a fixed seed-permuted cycle far longer than its cache) then one 4 KiB
// store to one of a few small files touched often enough to stay cached.
func (w *mixedRW) prepareB(r *run, n int) {
	w.bops = w.bops[:0]
	for k := 0; k < n; k++ {
		m := w.bn
		w.bn++
		var o op
		if m%5 == 4 {
			i := (m / 5) % mixBSmall
			w.bVer[i]++
			o = op{kind: opWrite, cli: 1, class: clsStore, path: w.bSmall[i], key: uint32(2000 + i), version: w.bVer[i], size: mixASize}
		} else {
			i := w.bOrder[(m-m/5)%w.z.mixBBig]
			o = op{kind: opRead, cli: 1, class: clsCold, full: true, path: w.bBig[i], key: uint32(1000 + i), version: 1, size: mixBBigSize}
		}
		r.genSum.note(&o)
		w.bops = append(w.bops, o)
	}
}

// execute runs A's stores on this goroutine and B's ops on another, and
// waits for both. Both counts are fixed, so per-op costs do not depend on
// how the machine's speed splits the time between them; they are sized so
// that at the seed commit the two finish close together.
func (w *mixedRW) execute(r *run) float64 {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range w.bops {
			r.do(&w.bops[i])
		}
	}()
	for i := range r.ops {
		r.do(&r.ops[i])
	}
	wg.Wait()
	return float64(len(r.ops) + len(w.bops))
}

func (w *mixedRW) pinned(r *run, t *totals) []string {
	var bad []string
	if t.perClient[0].Fetches != 0 {
		bad = append(bad, fmt.Sprintf("writer A fetched %d times, want 0 (it overwrites files it has cached)", t.perClient[0].Fetches))
	}
	b := t.perClient[1]
	if reads := b.Opens - b.Stores; b.Misses != reads {
		bad = append(bad, fmt.Sprintf("reader B missed %d of %d reads, want all", b.Misses, reads))
	}
	if f := t.fsyncsPerMut(); f > 1 {
		bad = append(bad, fmt.Sprintf("fsyncs per mutation %.4f, want at most 1", f))
	}
	return bad
}

// sim_cell: the other regime. One round is harness.RunScaleBench at a fixed
// population; one op is one simulated client-hour. The harness fixes its own
// seed, so --seed does not change this workload's inputs.

type simCell struct {
	z       sizes
	hours   []float64
	firstEr error
}

func (w *simCell) spec() wlSpec { return wlSpec{noCell: true} }

func (w *simCell) setup(*run) error {
	_, err := harness.RunScaleBench(harness.ScaleBenchConfig{Clients: []int{w.z.simClients / 5}, Quick: true})
	return err
}

func (w *simCell) prepare(*run, int) {}

func (w *simCell) execute(*run) float64 {
	sb, err := harness.RunScaleBench(harness.ScaleBenchConfig{Clients: []int{w.z.simClients}})
	if err != nil {
		if w.firstEr == nil {
			w.firstEr = err
		}
		w.hours = append(w.hours, 0)
		return 0
	}
	w.hours = append(w.hours, sb.Points[0].ClientHours)
	return sb.Points[0].ClientHours
}

func (w *simCell) pinned(*run, *totals) []string {
	want := w.z.simClientHours
	if want == 0 && len(w.hours) > 0 {
		want = w.hours[0] // unpinned sizes: the rounds must still agree with each other
	}
	for i, h := range w.hours {
		if h != want {
			return []string{fmt.Sprintf("round %d simulated %.3f client-hours, want %.3f", i, h, want)}
		}
	}
	return nil
}
