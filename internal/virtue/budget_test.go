package virtue

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
	"itcfs/internal/vice"
	"itcfs/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/real_path_budget.golden from this run")

const budgetGolden = "testdata/real_path_budget.golden"

// The table's columns, per operation. objects and bytes are what the heap
// allocated, counted from runtime.MemStats as testing.AllocsPerRun counts
// them (see measure for the window). Between them and unattributed sit the
// layer columns, alphabetically: the objects of each tree package that
// allocates (see layerObjects). unattributed is objects less every layer
// column, so a row's measured cells add up exactly; it is what the heap
// profile does not see, chiefly small pointer-free objects placed in a
// 16-byte block an earlier one opened (the profile records the block, once).
// The counts follow: rpcs are calls either way across every pipe, callbacks
// the breaks the row's workstations received, wire_bytes what crossed every
// pipe both ways, appends and fsyncs what walstore did to its file system,
// and log_bytes what those appends added to its log. A count must equal its
// pin; any other cell must not exceed it.
var budgetCounts = []string{"rpcs", "callbacks", "wire_bytes", "appends", "fsyncs", "log_bytes"}

// pinOf is what -update writes for a measured cell: objects and layer
// columns round up to the next 0.1, bytes to the next 64 B, and the counts
// are exact. A row that makes calls is pinned with a margin for what varies
// from run to run there: which pooled buffer a call draws, so whether it
// grows one, follows goroutine scheduling, and when a map grows follows its
// hash seed. In a window of a few hundred calls that moves objects and layer
// cells by up to 0.05 and bytes by up to 1 %, so its pins are taken that far
// above the value measured. A row that makes no call runs none of that and
// repeats exactly.
func pinOf(col string, v float64, calls bool) float64 {
	objectMargin, byteMargin := 0.0, 1.0
	if calls {
		objectMargin, byteMargin = 0.05, 1.01
	}
	var p float64
	switch {
	case col == "bytes":
		p = math.Ceil(v*byteMargin/64-1e-9) * 64
	case slices.Contains(budgetCounts, col):
		p = v
	default:
		p = math.Ceil((v+objectMargin)*10-1e-9) / 10
	}
	if p == 0 {
		p = 0 // not -0
	}
	return p
}

// formatCell prints a cell: bytes whole, counts exactly, and the object
// columns to places decimals (1 for a pin, 4 for a measured value).
func formatCell(col string, v float64, places int) string {
	switch {
	case col == "bytes":
		return strconv.FormatFloat(v, 'f', 0, 64)
	case slices.Contains(budgetCounts, col):
		return strconv.FormatFloat(v, 'f', -1, 64)
	default:
		return strconv.FormatFloat(v, 'f', places, 64)
	}
}

// isLayer reports whether col is a layer column.
func isLayer(col string) bool {
	return col != "objects" && col != "bytes" && col != "unattributed" && !slices.Contains(budgetCounts, col)
}

// budgetColumns orders the columns of cells: objects, bytes, the layers,
// unattributed, then the counts.
func budgetColumns(cells ...map[string]float64) []string {
	var layers []string
	for _, row := range cells {
		for col := range row {
			if isLayer(col) && !slices.Contains(layers, col) {
				layers = append(layers, col)
			}
		}
	}
	slices.Sort(layers)
	cols := append([]string{"objects", "bytes"}, layers...)
	return append(append(cols, "unattributed"), budgetCounts...)
}

// budgetTable is the golden: rows in order, each a map from column to pin.
type budgetTable struct {
	rows  []string
	cells map[string]map[string]float64
}

func readBudget(path string) (budgetTable, error) {
	tab := budgetTable{cells: map[string]map[string]float64{}}
	data, err := os.ReadFile(path)
	if err != nil {
		return tab, err
	}
	var header []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		if header == nil {
			header = fields
			continue
		}
		if len(fields) != len(header) {
			return tab, fmt.Errorf("%s: row %q has %d cells, the header %d", path, fields[0], len(fields), len(header))
		}
		row := map[string]float64{}
		for i, col := range header[1:] {
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return tab, fmt.Errorf("%s: row %q, %s: %v", path, fields[0], col, err)
			}
			row[col] = v
		}
		tab.rows = append(tab.rows, fields[0])
		tab.cells[fields[0]] = row
	}
	return tab, sc.Err()
}

func writeBudget(path string, tab budgetTable) error {
	rowCells := make([]map[string]float64, 0, len(tab.rows))
	for _, r := range tab.rows {
		rowCells = append(rowCells, tab.cells[r])
	}
	cols := budgetColumns(rowCells...)
	lines := [][]string{append([]string{"row"}, cols...)}
	for _, r := range tab.rows {
		line := []string{r}
		for _, col := range cols {
			line = append(line, formatCell(col, tab.cells[r][col], 1))
		}
		lines = append(lines, line)
	}
	width := make([]int, len(lines[0]))
	for _, line := range lines {
		for i, cell := range line {
			width[i] = max(width[i], len(cell))
		}
	}
	var b strings.Builder
	b.WriteString(`# The real path's budget: what one operation costs through virtue.FS, Venus,
# a Peer pair over net.Pipe and vice.Boot on walstore over a MemFS, both
# sides of every connection counted. TestRealPathBudget fails a count
# (rpcs … log_bytes) measured off its pin and any other cell measured above it;
# it logs one measured below. A row's measured layer cells and unattributed
# add up to its objects; each pin is rounded up on its own (see pinOf).
# After an intended change:
#   go test -run '^TestRealPathBudget$' ./internal/virtue -update
`)
	for _, line := range lines {
		for i, cell := range line {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", width[i], cell)
			} else {
				fmt.Fprintf(&b, " | %*s", width[i], cell)
			}
		}
		b.WriteString("\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// budgetCell is the stack the table measures: one server, vice.Boot on
// walstore over a MemFS, and workstations each dialled over a net.Pipe of
// its own to ServeConn, in revised mode. It counts the frames and bytes that
// cross the pipes and the appends, their bytes and the syncs walstore makes.
type budgetCell struct {
	t        *testing.T
	srv      *vice.Server
	disk     *store.MemFS
	stations []*FS
	frames   atomic.Int64
	wire     atomic.Int64
	appends  atomic.Int64
	logBytes atomic.Int64
	fsyncs   atomic.Int64
}

// countingFS is the MemFS walstore opens, counting the appends, their bytes
// and the syncs on every file it opens.
type countingFS struct {
	store.FS
	c *budgetCell
}

func (fs countingFS) Open(name string) (store.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return countingFile{f, fs.c}, nil
}

type countingFile struct {
	store.File
	c *budgetCell
}

func (f countingFile) Append(b []byte) error {
	f.c.appends.Add(1)
	f.c.logBytes.Add(int64(len(b)))
	return f.File.Append(b)
}

func (f countingFile) Sync() error {
	f.c.fsyncs.Add(1)
	return f.File.Sync()
}

// countingConn is a workstation's end of a pipe: it counts every byte the
// connection carries, once, and the frames in each direction. Every call,
// either way, is one frame out and one back, so calls are half the frames.
type countingConn struct {
	net.Conn
	c       *budgetCell
	in, out frameCounter
}

func (cc *countingConn) Read(b []byte) (int, error) {
	n, err := cc.Conn.Read(b)
	cc.c.wire.Add(int64(n))
	cc.c.frames.Add(cc.in.add(b[:n]))
	return n, err
}

// Write is called by one sender at a time: the Box's send side keeps
// concurrent senders' frames apart.
func (cc *countingConn) Write(b []byte) (int, error) {
	n, err := cc.Conn.Write(b)
	cc.c.wire.Add(int64(n))
	cc.c.frames.Add(cc.out.add(b[:n]))
	return n, err
}

// frameCounter follows one direction of a connection: frames, each a length
// prefix as wire.PutFrameHeader writes it and that many bytes.
type frameCounter struct {
	hdr  [wire.FrameHeaderSize]byte
	have int    // bytes of hdr seen
	left uint32 // bytes of the frame still to come
}

// add takes the next bytes of the stream and returns the frames begun in them.
func (f *frameCounter) add(b []byte) (frames int64) {
	for len(b) > 0 {
		if f.left > 0 {
			k := min(uint32(len(b)), f.left)
			f.left, b = f.left-k, b[k:]
			continue
		}
		k := copy(f.hdr[f.have:], b)
		f.have, b = f.have+k, b[k:]
		if f.have == len(f.hdr) {
			f.left, f.have = binary.LittleEndian.Uint32(f.hdr[:]), 0
			frames++
		}
	}
	return frames
}

func newBudgetCell(t *testing.T) *budgetCell {
	c := &budgetCell{t: t, disk: store.NewMemFS()}
	ws, err := walstore.Open(countingFS{c.disk, c})
	if err != nil {
		t.Fatal(err)
	}
	if c.srv, _, err = vice.Boot(vice.Config{Name: "s0", Mode: vice.Revised, Store: ws}, "pw"); err != nil {
		t.Fatal(err)
	}
	return c
}

// station connects a workstation whose cache holds maxBytes (0: Venus's
// default) and returns it with a function that closes its pipes and waits
// until the server has dropped what it held for them.
func (c *budgetCell) station(maxBytes int64) (*FS, func()) {
	var pipes []net.Conn
	var served []chan struct{}
	dial := func(string) (io.ReadWriteCloser, error) {
		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.srv.ServeConn(sc)
		}()
		pipes, served = append(pipes, cc), append(served, done)
		return &countingConn{Conn: cc, c: c}, nil
	}
	hangUp := func() {
		for i, cc := range pipes {
			cc.Close()
			<-served[i]
		}
		pipes, served = nil, nil
	}
	c.t.Cleanup(hangUp)
	callbacks := rpc.NewServer()
	fs := NewWorkstation(venus.Config{
		Mode: vice.Revised, Machine: "ws", Local: unixfs.New(nil), HomeServer: "s0", MaxBytes: maxBytes,
		Connect: venus.PeerConnector(dial, "operator", secure.DeriveKey("operator", "pw"), callbacks),
	}, callbacks)
	fs.Venus().Login("operator")
	c.stations = append(c.stations, fs)
	return fs, hangUp
}

// files makes /vice/m and n files of size bytes in it, written by a
// workstation that then hangs up, so the row's own stations find them cold
// and a store breaks only the promises the row sets up. It returns their
// names, all of one length, and their contents.
func (c *budgetCell) files(kind string, n, size int) ([]string, []byte) {
	names := budgetNames(kind, n)
	contents := bytes.Repeat([]byte("itc-miss"), size/8)
	setup, hangUp := c.station(0)
	if err := setup.Mkdir(nil, "/vice/m", 0o755); err != nil {
		c.t.Fatal(err)
	}
	for _, name := range names {
		if err := setup.WriteFile(nil, name, contents); err != nil {
			c.t.Fatal(err)
		}
	}
	hangUp()
	return names, contents
}

// fill adds n empty files to /vice/m, made by a workstation that then hangs
// up, so that a row's directory is large.
func (c *budgetCell) fill(n int) {
	setup, hangUp := c.station(0)
	for _, name := range budgetNames("o", n) {
		f, err := setup.Open(nil, name, FlagWrite|FlagCreate)
		if err == nil {
			err = f.Close(nil)
		}
		if err != nil {
			c.t.Fatal(err)
		}
	}
	hangUp()
}

// read has ws read every name, checking its contents.
func (c *budgetCell) read(ws *FS, names []string, contents []byte) {
	for _, name := range names {
		if got, err := ws.ReadFile(nil, name); err != nil || !bytes.Equal(got, contents) {
			c.t.Fatalf("read %s: %d bytes, %v", name, len(got), err)
		}
	}
}

func budgetNames(kind string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("/vice/m/%s%04d", kind, i)
	}
	return names
}

// budgetRun is a row made ready to measure: op(i) is its i-th operation,
// whose names and payloads were all built beforehand. The rest is the
// precondition the row stands on, per operation: what it adds to ws's
// counters (those venusCounts keeps), the calls it makes either way, and
// the promises it breaks.
type budgetRun struct {
	ws            *FS
	op            func(i int) error
	want          venus.Stats
	calls, breaks float64
}

// budgetOps is how many operations a row of runs prepares: a window of one
// and a window of runs+1, each after its primers.
func budgetOps(runs int) int { return runs + 2 + 2*budgetPrimers }

// budgetPrimers is how many unmeasured operations run before each window,
// followed by a collection. A pool's item outlives a collection only if it
// was drawn since the one before, so a window can draw on no more of a
// pool's items than the operations since the last collection had out at
// once. How many a call has out at once depends on the order its goroutines
// run in: a server worker the scheduler preempts while its caller is still
// in its seal lets the caller give its seal buffer back before the worker
// takes one, and the call needs one 32 KiB buffer, not two. Behind the one
// operation of the first window, such a call left the second window to pay
// for the buffer, 82 B a row of 400. Behind three operations, the window
// draws on the most any of them had out.
const budgetPrimers = 3

// layerObjects returns the objects the heap profile has recorded, by the
// tree package each was allocated in: the package of the record's innermost
// frame under itcfs/, unless that frame is in a _test.go file (the test's
// own objects, such as this function's snapshot) or there is no such frame
// (the runtime's own); both are left out. The profile holds what was
// allocated up to the last completed collection.
func layerObjects(layers map[uintptr]string) map[string]int64 {
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := map[string]int64{}
	for _, r := range recs[:n] {
		for _, pc := range r.Stack() {
			layer, seen := layers[pc]
			if !seen {
				layer = layerAt(pc)
				layers[pc] = layer
			}
			if layer != "" {
				if layer != "-" {
					out[layer] += r.AllocObjects
				}
				break
			}
		}
	}
	return out
}

// layerAt names the innermost tree frame at return address pc, which may
// stand for several frames inlined into one: the last element of its
// package path, "-" for a test file, "" for none.
func layerAt(pc uintptr) string {
	frames := runtime.CallersFrames([]uintptr{pc})
	for {
		f, more := frames.Next()
		fn, _, _ := strings.Cut(f.Function, "[") // a generic's shape list may hold paths
		if strings.HasPrefix(fn, "itcfs/") || strings.HasPrefix(fn, "itcfs.") {
			if strings.HasSuffix(f.File, "_test.go") {
				return "-"
			}
			pkg := fn[strings.LastIndex(fn, "/")+1:]
			pkg, _, _ = strings.Cut(pkg, ".")
			return pkg
		}
		if !more {
			return ""
		}
	}
}

// budgetTotals is what a window of operations cost, in all.
type budgetTotals struct {
	cells map[string]int64 // every column but unattributed
	ws    venus.Stats
}

// window runs the budgetPrimers operations before op(first) and collects,
// then measures op(first) … op(last) and collects, which publishes their
// heap-profile records. The caller has turned the collector off.
func (c *budgetCell) window(t *testing.T, run budgetRun, first, last int, layers map[uintptr]string) budgetTotals {
	t.Helper()
	for i := first - budgetPrimers; i < first; i++ {
		if err := run.op(i); err != nil {
			t.Fatalf("primer op %d: %v", i, err)
		}
	}
	settle(t)
	runtime.GC()
	before := layerObjects(layers)
	ws0 := run.ws.Venus().Stats()
	frames0, callbacks0 := c.frames.Load(), c.callbacks()
	wire0, appends0, fsyncs0, log0 := c.wire.Load(), c.appends.Load(), c.fsyncs.Load(), c.logBytes.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := first; i <= last; i++ {
		if err := run.op(i); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		settle(t)
	}
	runtime.ReadMemStats(&m1)
	tot := budgetTotals{cells: map[string]int64{
		"objects":    int64(m1.Mallocs - m0.Mallocs),
		"bytes":      int64(m1.TotalAlloc - m0.TotalAlloc),
		"rpcs":       (c.frames.Load() - frames0) / 2,
		"callbacks":  c.callbacks() - callbacks0,
		"wire_bytes": c.wire.Load() - wire0,
		"appends":    c.appends.Load() - appends0,
		"fsyncs":     c.fsyncs.Load() - fsyncs0,
		"log_bytes":  c.logBytes.Load() - log0,
	}}
	tot.ws = venusCounts(ws0, run.ws.Venus().Stats(), func(a, b int64) int64 { return b - a })
	runtime.GC()
	for layer, n := range layerObjects(layers) {
		if n -= before[layer]; n != 0 {
			tot.cells[layer] = n
		}
	}
	return tot
}

// settle waits, yielding the one P, until every Peer is idle
// (rpc.PeersIdle): each worker done with its call and each read loop waiting
// for its next frame. A window settles before its first operation and after
// each, so what an operation's goroutines do after its caller has its answer
// — a server worker giving the call's buffers back, say — lands inside the
// window and before the next operation, however long the machine's load
// keeps them from running. A count of yields does not wait for a goroutine
// the scheduler has preempted: on a loaded machine the next call then found
// that worker busy and its buffers lent, and the row paid for a second
// worker and its buffers.
func settle(t *testing.T) {
	t.Helper()
	deadline := rpc.Clock(nil).Add(settleLimit)
	for !rpc.PeersIdle() {
		if rpc.Clock(nil) > deadline {
			t.Fatalf("the peers are still busy after %v", settleLimit)
		}
		runtime.Gosched()
	}
}

// settleLimit bounds settle's wait: far beyond any served call's tail, it
// only ends a test that would otherwise hang.
const settleLimit = time.Minute

// callbacks sums the breaks every station of the cell has received.
func (c *budgetCell) callbacks() (n int64) {
	for _, fs := range c.stations {
		n += fs.Venus().Stats().CallbackBreaks
	}
	return n
}

// venusCounts applies f to each pair of the counters a row's precondition
// judges: the opens, their outcome, every kind of call, and evictions.
func venusCounts(a, b venus.Stats, f func(a, b int64) int64) venus.Stats {
	return venus.Stats{
		Opens: f(a.Opens, b.Opens), Hits: f(a.Hits, b.Hits), Misses: f(a.Misses, b.Misses),
		Validations: f(a.Validations, b.Validations), BulkValidations: f(a.BulkValidations, b.BulkValidations),
		Fetches: f(a.Fetches, b.Fetches), Stores: f(a.Stores, b.Stores), StatRPCs: f(a.StatRPCs, b.StatRPCs),
		OtherRPCs: f(a.OtherRPCs, b.OtherRPCs), Evictions: f(a.Evictions, b.Evictions),
	}
}

// measure returns a row's cells per operation: what a window of runs+1
// operations cost less what a window of one did.
//
// The difference is what makes a cell the cost of one steady operation. A
// collection empties the caches operations refill: each sync.Pool keeps
// its items one collection longer in a victim cache, but its first Put
// after one builds it a fresh local array and ring. The profile needs a
// collection before and after each window, so each window's first operation
// pays that, and pays it alike: each window's primers run after a
// collection, and the collection after them leaves their items in the
// victim caches. The collector is off throughout, so a collection runs only
// where window or measure calls one: none inside a window, where it would
// cost an amount that follows the heap, not the operation, and never two
// back to back, which would empty the victim caches too.
func (c *budgetCell) measure(t *testing.T, runs int, run budgetRun, layers map[uintptr]string) map[string]float64 {
	t.Helper()
	// Room for every record a row appends, 48 of 1 MiB at most. Appending to
	// a file on disk allocates nothing; a slice that grows on an append would
	// put the copying a test double does into the bytes column.
	c.disk.Grow("wal.log", 64<<20)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	one := c.window(t, run, budgetPrimers, budgetPrimers, layers)
	many := c.window(t, run, 2*budgetPrimers+1, 2*budgetPrimers+1+runs, layers)
	cells := map[string]float64{}
	for col, n := range many.cells {
		cells[col] = float64(n-one.cells[col]) / float64(runs)
	}
	for col, n := range one.cells {
		if _, ok := many.cells[col]; !ok {
			cells[col] = float64(-n) / float64(runs)
		}
	}
	unattributed := cells["objects"]
	for col, v := range cells {
		if isLayer(col) {
			unattributed -= v
		}
	}
	cells["unattributed"] = unattributed
	got := venusCounts(one.ws, many.ws, func(a, b int64) int64 { return b - a })
	want := venusCounts(run.want, run.want, func(a, _ int64) int64 { return a * int64(runs) })
	if got != want {
		t.Fatalf("precondition: %d ops moved Venus's counters by %+v, want %+v", runs, got, want)
	}
	if cells["rpcs"] != run.calls || cells["callbacks"] != run.breaks {
		t.Fatalf("precondition: %v calls and %v breaks per op, want %v and %v", cells["rpcs"], cells["callbacks"], run.calls, run.breaks)
	}
	return cells
}

// TestRealPathBudget is the real path's cost table: each row one operation
// through virtue.FS on the real stack (budgetCell), each column a cost per
// operation, each cell pinned in testdata/real_path_budget.golden. A count
// off its pin fails, and so does any other cell above its pin; a cell below
// it is logged, for -update to lower.
func TestRealPathBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, and sync.Pool drops items at random under it")
	}
	// One P: how a pool's items and the runtime's tiny blocks spread over
	// processors is the scheduler's choice, and would move the counts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	const (
		kib  = 1 << 10
		mib  = 1 << 20
		full = 4 // files a full-cache workstation's cache holds
	)
	// coldRead: each read fetches a file this workstation has not read. With
	// cached set, its cache holds that many files of size and the listing
	// that leads to them, and every read evicts the least recently read file.
	coldRead := func(size, cached int) func(c *budgetCell, runs int) budgetRun {
		return func(c *budgetCell, runs int) budgetRun {
			names, contents := c.files("r", cached+budgetOps(runs), size)
			var maxBytes int64
			if cached > 0 {
				maxBytes = int64(cached*size + 8*kib)
			}
			ws, _ := c.station(maxBytes)
			c.read(ws, names[:cached], contents)
			if _, err := ws.ReadDir(nil, "/vice/m"); err != nil {
				c.t.Fatal(err)
			}
			want := venus.Stats{Opens: 1, Misses: 1, Fetches: 1}
			if cached > 0 {
				want.Evictions = 1
			}
			return budgetRun{ws: ws, want: want, calls: 1,
				op: func(i int) error {
					got, err := ws.ReadFile(nil, names[cached+i])
					if err == nil && !bytes.Equal(got, contents) {
						err = fmt.Errorf("read back %d bytes that differ", len(got))
					}
					return err
				}}
		}
	}
	// warm: the workstation has read the file; each op makes no call, and
	// each open it makes (opens: 1 or 0) is a cache hit.
	warm := func(size int, opens int64, op func(ws *FS, name string, contents []byte) error) func(c *budgetCell, runs int) budgetRun {
		return func(c *budgetCell, runs int) budgetRun {
			names, contents := c.files("w", 1, size)
			ws, _ := c.station(0)
			c.read(ws, names, contents)
			return budgetRun{ws: ws, want: venus.Stats{Opens: opens, Hits: opens},
				op: func(int) error { return op(ws, names[0], contents) }}
		}
	}
	readWhole := func(ws *FS, name string, contents []byte) error {
		got, err := ws.ReadFile(nil, name)
		if err == nil && len(got) != len(contents) {
			err = fmt.Errorf("read %d bytes of %d", len(got), len(contents))
		}
		return err
	}
	// oneCall: each op is one call on a name ws has a listing for and, with
	// preload, has read, and adds want to ws's counters. Files of kind "f"
	// exist beforehand, one per op, and others empty files besides; to, if
	// set, names what the op creates.
	oneCall := func(preload bool, others int, want venus.Stats, op func(ws *FS, name, to string) error) func(c *budgetCell, runs int) budgetRun {
		return func(c *budgetCell, runs int) budgetRun {
			names, contents := c.files("f", budgetOps(runs), 4*kib)
			c.fill(others)
			targets := budgetNames("t", budgetOps(runs))
			ws, _ := c.station(0)
			if preload {
				c.read(ws, names, contents)
			}
			if _, err := ws.ReadDir(nil, "/vice/m"); err != nil {
				c.t.Fatal(err)
			}
			return budgetRun{ws: ws, want: want, calls: 1,
				op: func(i int) error { return op(ws, names[i], targets[i]) }}
		}
	}
	contents4K := bytes.Repeat([]byte("itc-miss"), 4*kib/8)
	// stored is what a WriteFile over a file ws has read adds to its counters.
	stored := venus.Stats{Opens: 1, Hits: 1, Stores: 1}
	// breaking: ws stores files that it and holders others have read, so
	// each store breaks every holder's promise.
	breaking := func(holders int) func(c *budgetCell, runs int) budgetRun {
		return func(c *budgetCell, runs int) budgetRun {
			names, contents := c.files("b", budgetOps(runs), 4*kib)
			ws, _ := c.station(0)
			c.read(ws, names, contents)
			for range holders {
				h, _ := c.station(0)
				c.read(h, names, contents)
			}
			return budgetRun{ws: ws, want: stored, calls: float64(1 + holders), breaks: float64(holders),
				op: func(i int) error { return ws.WriteFile(nil, names[i], contents) }}
		}
	}

	create := func(ws *FS, _, to string) error {
		f, err := ws.Open(nil, to, FlagWrite|FlagCreate)
		if err != nil {
			return err
		}
		return f.Close(nil)
	}
	remove := func(ws *FS, name, _ string) error { return ws.Remove(nil, name) }

	rows := []struct {
		name    string
		runs    int
		prepare func(c *budgetCell, runs int) budgetRun // for budgetOps(runs) operations
	}{
		{"cold ReadFile 4 KiB", 400, coldRead(4*kib, 0)},
		{"cold ReadFile 64 KiB, full cache", 200, coldRead(64*kib, full)},
		{"cold ReadFile 1 MiB, full cache", 20, coldRead(mib, full)},
		{"warm ReadFile 4 KiB", 400, warm(4*kib, 1, readWhole)},
		{"warm ReadFile 64 KiB", 200, warm(64*kib, 1, readWhole)},
		{"warm ReadFile 1 MiB", 20, warm(mib, 1, readWhole)},
		{"warm Stat", 400, warm(4*kib, 0, func(ws *FS, name string, contents []byte) error {
			st, err := ws.Stat(nil, name)
			if err == nil && st.Size != int64(len(contents)) {
				err = fmt.Errorf("size %d, want %d", st.Size, len(contents))
			}
			return err
		})},
		{"warm Open+Close", 400, warm(4*kib, 1, func(ws *FS, name string, _ []byte) error {
			f, err := ws.Open(nil, name, FlagRead)
			if err != nil {
				return err
			}
			return f.Close(nil)
		})},
		{"Stat (status RPC)", 400, oneCall(false, 0, venus.Stats{StatRPCs: 1}, func(ws *FS, name, _ string) error {
			_, err := ws.Stat(nil, name)
			return err
		})},
		{"WriteFile (store)", 400, oneCall(true, 0, stored, func(ws *FS, name, _ string) error {
			return ws.WriteFile(nil, name, contents4K)
		})},
		// 40 stores, not 20: under 2 x nproc copies of the table at once, a
		// window's pools grow by up to three objects more than the other's,
		// 0.15 a store over 20 and above the row's pin.
		{"WriteFile (store) 1 MiB", 40, func(c *budgetCell, runs int) budgetRun {
			names, contents := c.files("s", budgetOps(runs), mib)
			ws, _ := c.station(int64(len(names)*mib + 8*kib)) // holds every file it reads
			c.read(ws, names, contents)
			return budgetRun{ws: ws, want: stored, calls: 1,
				op: func(i int) error { return ws.WriteFile(nil, names[i], contents) }}
		}},
		{"WriteFile over a just-stored 4 KiB file", 400, func(c *budgetCell, runs int) budgetRun {
			run := oneCall(true, 0, stored, func(ws *FS, name, _ string) error { return ws.WriteFile(nil, name, contents4K) })(c, runs)
			for i := range budgetOps(runs) {
				if err := run.op(i); err != nil {
					c.t.Fatal(err)
				}
			}
			return run
		}},
		// Venus counts a create's open but not its call (ROADMAP item 19).
		{"Create", 400, oneCall(false, 0, venus.Stats{Opens: 1}, create)},
		{"Create in a 4 000-entry directory", 400, oneCall(false, 4000, venus.Stats{Opens: 1}, create)},
		{"Mkdir", 400, oneCall(false, 0, venus.Stats{OtherRPCs: 1}, func(ws *FS, _, to string) error { return ws.Mkdir(nil, to, 0o755) })},
		{"Remove", 400, oneCall(false, 0, venus.Stats{OtherRPCs: 1}, remove)},
		{"Remove in a 4 000-entry directory", 400, oneCall(false, 4000, venus.Stats{OtherRPCs: 1}, remove)},
		{"Rename within one directory", 400, oneCall(false, 0, venus.Stats{OtherRPCs: 1}, func(ws *FS, name, to string) error { return ws.Rename(nil, name, to) })},
		{"WriteFile breaking 1 holder's promise", 400, breaking(1)},
		{"WriteFile breaking 4 holders' promises", 400, breaking(4)},
	}

	golden, err := readBudget(budgetGolden)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	layers := map[uintptr]string{}
	fresh := map[string]map[string]float64{} // each row's pins as this run would write them
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := newBudgetCell(t)
			cells := c.measure(t, row.runs, row.prepare(c, row.runs), layers)
			var line strings.Builder
			for _, col := range budgetColumns(cells) {
				fmt.Fprintf(&line, " %s=%s", col, formatCell(col, cells[col], 4))
			}
			t.Logf("%d ops:%s", row.runs, line.String())
			want := map[string]float64{}
			for col, v := range cells {
				want[col] = pinOf(col, v, cells["rpcs"] > 0)
			}
			fresh[row.name] = want
			if *update {
				return
			}
			pins, ok := golden.cells[row.name]
			if !ok {
				t.Fatalf("no row %q in %s (run with -update)", row.name, budgetGolden)
			}
			for _, col := range budgetColumns(cells, pins) {
				got, pin := cells[col], pins[col]
				measured, pinned := formatCell(col, got, 4), formatCell(col, pin, 1)
				switch _, ok := pins[col]; {
				case !ok:
					t.Errorf("%s: %s is %s, and %s has no such column (run with -update)", row.name, col, measured, budgetGolden)
				case slices.Contains(budgetCounts, col) && math.Abs(got-pin) > 1e-9:
					t.Errorf("%s: %s is %s, pinned at exactly %s (run with -update if the change is meant)", row.name, col, measured, pinned)
				case got > pin+1e-9:
					t.Errorf("%s: %s is %s, pinned at %s", row.name, col, measured, pinned)
				case want[col] < pin:
					t.Logf("%s: %s is %s, below its pin %s: run with -update to lower it", row.name, col, measured, pinned)
				}
			}
		})
	}
	if !*update {
		return
	}
	// Rows this run did not measure (a -run filter) keep their pins.
	out := budgetTable{cells: map[string]map[string]float64{}}
	for _, row := range rows {
		pins, ok := fresh[row.name]
		if !ok {
			pins, ok = golden.cells[row.name]
		}
		if ok {
			out.rows = append(out.rows, row.name)
			out.cells[row.name] = pins
		}
	}
	if err := writeBudget(budgetGolden, out); err != nil {
		t.Fatal(err)
	}
}
