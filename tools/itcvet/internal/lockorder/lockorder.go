// Package lockorder machine-checks the tree's lock acquisition discipline,
// the whole-program complement to lockcheck's per-field contracts.
//
// The analyzer treats every sync.Mutex / sync.RWMutex field of a struct
// declared in the package as a lock node, identified by type and field name
// (Server.mu, LockTable.mu) — all instances of a type share one node, which
// is exactly the granularity a lock-ordering discipline is stated at. For
// every function it follows package locks' Walker — the one lockcheck uses,
// seeded from the same //itcvet:holds entry states — for which locks are
// held along each control-flow path, and builds an acquisition graph:
//
//	A -> B: some path acquires B while holding A,
//
// either directly (s.mu.Lock() under the gate) or interprocedurally, through
// any chain of same-package calls (Reset holds the table lock and calls
// promisedCount, which takes the shard lock). Any cycle in the graph is a
// potential deadlock — two processes entering the cycle at different points
// each hold what the other needs — and is reported once, with the full
// acquisition chain and a witness position for every edge. `itcvet
// -lockgraph ./...` emits the merged graph for the whole module in a
// deterministic, diffable text form (see DESIGN.md §7).
//
// The analyzer also flags blocking operations performed while any tracked
// lock is held. A mutex in this tree protects maps and counters; a path
// that parks the holder — a channel send or receive, a select with no
// default, an RPC Call/CallBack, a Store.Commit/Checkpoint, an fsync
// (Sync), a durable replace (WriteFileAtomic), or socket frame I/O
// (wire.WriteFrame/ReadFrame/ReadFrameLimit, a SealFrame method streaming a
// sealed frame into a writer, net.Conn reads and writes, and reads and writes
// through an io interface, which may be a socket's), or one of the
// simulation kernel's parks (Proc.Sleep/Yield, Future.Wait, Resource.Use,
// Mailbox.Get: a simulated process that parks under a lock hangs the kernel,
// not one caller) — stalls every other path through that lock for an
// unbounded time, and under the WAL's group-commit protocol can deadlock
// outright. Genuinely intended waits (the WAL append that must stay inside
// vice's gate so log order matches apply order) carry
//
//	//itcvet:allowblocking <why>
//
// on the flagged line or the line above (package check reads it, and
// diagnoses an unused one or one with no reason). sync.Cond operations are
// exempt: Wait releases the paired mutex by contract.
//
// The walk's approximations are the Walker's (DESIGN.md §7 lists them).
// What is lockorder's own: a lock counts as held at either level; every
// function literal, deferred ones included, is analyzed with no locks held
// (it may run anywhere); a deferred or spawned call is not a call made
// here; calls that cannot be resolved to a same-package declaration
// contribute no graph edges (the blocking check still sees them). Locks are
// conflated per type, so nesting two instances of the same type reports as
// a self-cycle — which is the conservative reading: a program that nests
// same-type locks needs an instance order the analyzer cannot see.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"itcfs/tools/itcvet/internal/check"
	"itcfs/tools/itcvet/internal/locks"
)

// Analyzer is the lockorder pass.
var Analyzer = &check.Analyzer{
	Name:     "lockorder",
	Doc:      "build the lock-acquisition graph, report cycles (potential deadlocks) and blocking calls made while a lock is held",
	Category: "lockorder",
	Run:      run,
}

// Key identifies one lock node: a mutex field of a named struct type.
type Key = locks.Key

// Edge is one acquisition-order observation: some path acquires To while
// holding From. Pos is a witness site; Via names the function it is in
// (and, for interprocedural edges, the callee whose body acquires To).
type Edge struct {
	From, To Key
	Pos      token.Position
	Via      string
}

// Graph is a package's lock inventory and acquisition-order edges, the
// exported form the -lockgraph mode merges across packages.
type Graph struct {
	Nodes []Key  // every mutex field of every struct in the package, sorted
	Edges []Edge // deduplicated: one lexicographically-least witness per (From, To)
}

func run(pass *check.Pass) {
	a := newAnalysis(pass.Fset, pass.Files, pass.Pkg, pass.Info)
	a.analyze()

	for _, b := range a.blocking {
		pass.ReportBlockingf(b.pos,
			"%s while %s is held; a blocked holder stalls every path through the lock (annotate //itcvet:allowblocking <why> if the wait is intended)",
			b.desc, b.held)
	}

	// Lock-order cycles over the package's merged graph.
	g := a.graph()
	for _, cyc := range Cycles(g) {
		pass.Reportf(a.edgePos[cyc.Edges[0]],
			"lock-order cycle (potential deadlock): %s", describeCycle(cyc))
	}
}

// BuildGraph extracts the package's lock graph without reporting anything;
// the -lockgraph mode calls it per package and merges.
func BuildGraph(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) Graph {
	a := newAnalysis(fset, files, pkg, info)
	a.analyze()
	return a.graph()
}

// Cycle is one elementary lock-order cycle: Edges[i].To == Edges[i+1].From
// and the last edge returns to the first node.
type Cycle struct {
	Edges []Edge
}

// describeCycle renders "A -> B (file:line, fn) -> A (file:line, fn)".
func describeCycle(c Cycle) string {
	var b strings.Builder
	b.WriteString(c.Edges[0].From.String())
	for _, e := range c.Edges {
		fmt.Fprintf(&b, " -> %s (%s:%d, %s)", e.To, filepath.Base(e.Pos.Filename), e.Pos.Line, e.Via)
	}
	return b.String()
}

// Cycles finds the elementary cycles of g, deterministically. Each strongly
// connected component contributes the cycles found by a DFS from its
// smallest node over sorted adjacency; for the disciplined graphs this tree
// maintains (acyclic, or nearly so) that reports every offending loop once,
// smallest entry node first.
func Cycles(g Graph) []Cycle {
	// Adjacency with the witness edge per (from, to).
	adj := map[Key][]Edge{}
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e)
	}
	for k := range adj {
		es := adj[k]
		sort.Slice(es, func(i, j int) bool { return es[i].To.Less(es[j].To) })
	}
	var nodes []Key
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Less(nodes[j]) })

	var out []Cycle
	seen := map[string]bool{} // canonical node sequence -> reported
	var stack []Edge
	onStack := map[Key]bool{}
	visited := map[Key]bool{}

	var dfs func(n Key)
	dfs = func(n Key) {
		onStack[n] = true
		for _, e := range adj[n] {
			if onStack[e.To] {
				// The stack suffix starting where e.To was entered, plus e,
				// is a cycle; a self-loop (e.From == e.To) is just [e].
				start := len(stack)
				for k := range stack {
					if stack[k].From == e.To {
						start = k
						break
					}
				}
				cyc := Cycle{Edges: append(append([]Edge(nil), stack[start:]...), e)}
				key := canonicalCycle(cyc)
				if !seen[key] {
					seen[key] = true
					out = append(out, cyc)
				}
				continue
			}
			if visited[e.To] {
				continue
			}
			stack = append(stack, e)
			dfs(e.To)
			stack = stack[:len(stack)-1]
		}
		onStack[n] = false
		visited[n] = true
	}
	for _, n := range nodes {
		if !visited[n] {
			dfs(n)
		}
	}
	return out
}

// canonicalCycle rotates the cycle's node sequence to start at its smallest
// node so the same loop found from two entry points deduplicates.
func canonicalCycle(c Cycle) string {
	n := len(c.Edges)
	best := ""
	for r := 0; r < n; r++ {
		var parts []string
		for i := 0; i < n; i++ {
			parts = append(parts, c.Edges[(r+i)%n].From.String())
		}
		s := strings.Join(parts, "->")
		if best == "" || s < best {
			best = s
		}
	}
	return best
}

// blockFinding is one blocking operation performed with locks held.
type blockFinding struct {
	pos  token.Pos
	desc string
	held Key // one representative held lock (the smallest)
}

// callSite is one resolvable same-package call made with locks held.
type callSite struct {
	callee *types.Func
	pos    token.Pos
	held   []Key
}

// summary is the per-function analysis result.
type summary struct {
	calls  []callSite
	allAcq map[Key]bool // locks acquired in the body, plus everything reachable callees acquire
	// blockDescs are the function's direct blocking operations, independent
	// of lock state — the caller-side check uses them for calls made under a
	// lock. Bounded to the first few for message brevity.
	blockDescs []string
	mayBlock   bool // blockDescs nonempty, here or in any reachable callee
}

// analysis carries one package through graph construction.
type analysis struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info

	inv   *locks.Inventory
	decls map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func]*summary

	edges    map[[2]Key]Edge    // deduplicated, least witness
	edgePos  map[Edge]token.Pos // report position for cycle diagnostics
	blocking []blockFinding
}

func newAnalysis(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *analysis {
	return &analysis{
		fset: fset, files: files, pkg: pkg, info: info,
		inv:     locks.NewInventory(files, info),
		decls:   map[*types.Func]*ast.FuncDecl{},
		sums:    map[*types.Func]*summary{},
		edges:   map[[2]Key]Edge{},
		edgePos: map[Edge]token.Pos{},
	}
}

func (a *analysis) analyze() {
	a.collectDecls()
	// Per-function intraprocedural pass.
	for fn, decl := range a.decls {
		a.sums[fn] = a.scanFunc(fn, decl)
	}
	// Fixed point: propagate acquisitions and blocking through calls.
	for changed := true; changed; {
		changed = false
		for _, sum := range a.sums {
			for _, c := range sum.calls {
				callee := a.sums[c.callee]
				if callee == nil {
					continue
				}
				for k := range callee.allAcq {
					if !sum.allAcq[k] {
						sum.allAcq[k] = true
						changed = true
					}
				}
				if callee.mayBlock && !sum.mayBlock {
					sum.mayBlock = true
					changed = true
				}
			}
		}
	}
	// Interprocedural edges and caller-side blocking findings.
	fns := make([]*types.Func, 0, len(a.sums))
	for fn := range a.sums {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	for _, fn := range fns {
		sum := a.sums[fn]
		for _, c := range sum.calls {
			callee := a.sums[c.callee]
			if callee == nil || len(c.held) == 0 {
				continue
			}
			for _, from := range c.held {
				for to := range callee.allAcq {
					a.addEdge(from, to, c.pos, fmt.Sprintf("%s calls %s", funcName(fn), funcName(c.callee)))
				}
			}
			if callee.mayBlock {
				desc := "a blocking operation"
				if len(callee.blockDescs) > 0 {
					desc = callee.blockDescs[0]
				} else {
					// Blocking somewhere deeper; name the chain head.
					for _, cc := range callee.calls {
						if s := a.sums[cc.callee]; s != nil && s.mayBlock {
							desc = fmt.Sprintf("a blocking operation via %s", funcName(cc.callee))
							break
						}
					}
				}
				a.blocking = append(a.blocking, blockFinding{
					pos:  c.pos,
					desc: fmt.Sprintf("call to %s performs %s", funcName(c.callee), desc),
					held: c.held[0],
				})
			}
		}
	}
	sort.Slice(a.blocking, func(i, j int) bool { return a.blocking[i].pos < a.blocking[j].pos })
}

func funcName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if tn := check.NamedOf(recv.Type()); tn != nil {
			return tn.Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

func (a *analysis) addEdge(from, to Key, pos token.Pos, via string) {
	e := Edge{From: from, To: to, Pos: a.fset.Position(pos), Via: via}
	k := [2]Key{from, to}
	if old, ok := a.edges[k]; ok && witnessLess(old, e) {
		return
	}
	a.edges[k] = e
	a.edgePos[e] = pos
}

// witnessLess orders candidate witnesses for the same (from, to) pair so the
// kept one is deterministic whatever the scan order.
func witnessLess(x, y Edge) bool {
	if x.Pos.Filename != y.Pos.Filename {
		return x.Pos.Filename < y.Pos.Filename
	}
	if x.Pos.Offset != y.Pos.Offset {
		return x.Pos.Offset < y.Pos.Offset
	}
	return x.Via < y.Via
}

func (a *analysis) graph() Graph {
	g := Graph{}
	var nodes []Key
	for _, s := range a.inv.Structs {
		for _, m := range s.Mutexes {
			nodes = append(nodes, Key{Type: s.Type.Name(), Field: m.Name})
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Less(nodes[j]) })
	g.Nodes = nodes
	for _, e := range a.edges {
		g.Edges = append(g.Edges, e)
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		x, y := g.Edges[i], g.Edges[j]
		if x.From != y.From {
			return x.From.Less(y.From)
		}
		return x.To.Less(y.To)
	})
	return g
}

func (a *analysis) collectDecls() {
	for _, f := range a.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := a.info.Defs[fd.Name].(*types.Func); ok {
				a.decls[fn] = fd
			}
		}
	}
}

// scanFunc runs the intraprocedural pass over one declaration.
func (a *analysis) scanFunc(fn *types.Func, decl *ast.FuncDecl) *summary {
	sum := &summary{allAcq: map[Key]bool{}}
	w := locks.Walker{Inv: a.inv, Obs: &scanner{a: a, sum: sum, fn: funcName(fn)}}
	w.Walk(decl)
	sum.mayBlock = len(sum.blockDescs) > 0
	return sum
}

// scanner observes one function's walk, filling its summary and the
// package's direct edges and blocking findings. A lock counts as held at
// either level.
type scanner struct {
	a   *analysis
	sum *summary
	fn  string // for edge labels
}

func (s *scanner) Access(*ast.SelectorExpr, bool, locks.Held) {}

// LiteralEntry: a literal may run anywhere — deferred to exit, handed to
// another process — so its body is analyzed with nothing held.
func (s *scanner) LiteralEntry(locks.Held) locks.Held { return nil }

func (s *scanner) Acquire(key Key, pos token.Pos, held locks.Held) {
	for from := range held {
		s.a.addEdge(from, key, pos, s.fn)
	}
	s.sum.allAcq[key] = true
}

// Call classifies blocking and records resolvable same-package callees.
func (s *scanner) Call(e *ast.CallExpr, held locks.Held) {
	if desc, ok := s.a.blockingCall(e); ok {
		s.Blocking(e.Pos(), desc, held)
	}
	if fn := s.a.calleeOf(e); fn != nil {
		s.sum.calls = append(s.sum.calls, callSite{callee: fn, pos: e.Pos(), held: held.Keys()})
	}
}

func (s *scanner) Blocking(pos token.Pos, desc string, held locks.Held) {
	if len(s.sum.blockDescs) < 3 {
		s.sum.blockDescs = append(s.sum.blockDescs, desc)
	}
	if keys := held.Keys(); len(keys) > 0 {
		s.a.blocking = append(s.a.blocking, blockFinding{pos: pos, desc: desc, held: keys[0]})
	}
}

// calleeOf resolves a call to a function or method declared in this package.
func (a *analysis) calleeOf(e *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(e.Fun).(type) {
	case *ast.Ident:
		obj = a.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = a.info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() != a.pkg {
		return nil
	}
	if _, hasDecl := a.decls[fn]; !hasDecl {
		return nil
	}
	return fn
}

// blockingCall classifies calls that can park the calling process.
func (a *analysis) blockingCall(e *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(e.Fun).(type) {
	case *ast.Ident:
		// wire.WriteFrame / wire.ReadFrame imported dot-free only; plain
		// idents are same-package helpers, classified via their own bodies.
		return "", false
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		// Package-level socket frame I/O: wire.WriteFrame / wire.ReadFrame.
		if obj, ok := a.info.Uses[fun.Sel].(*types.Func); ok && obj.Type().(*types.Signature).Recv() == nil {
			if (name == "WriteFrame" || name == "ReadFrame" || name == "ReadFrameLimit") && obj.Pkg() != nil && obj.Pkg().Name() == "wire" {
				return "socket frame I/O (" + name + ")", true
			}
			return "", false
		}
		recvTN := check.NamedOf(a.info.TypeOf(fun.X))
		// sync.Cond is exempt: Wait releases the paired mutex by contract.
		if recvTN != nil && recvTN.Pkg() != nil && recvTN.Pkg().Path() == "sync" {
			return "", false
		}
		if recvTN != nil && recvTN.Pkg() != nil && recvTN.Pkg().Name() == "sim" {
			switch park := recvTN.Name() + "." + name; park {
			case "Proc.Sleep", "Proc.Yield", "Future.Wait", "Resource.Use", "Mailbox.Get":
				return "simulated park (" + park + ")", true
			}
		}
		switch name {
		case "Call", "CallBack":
			return "RPC " + name, true
		case "SealFrame":
			return "socket frame I/O (SealFrame)", true
		case "Sync":
			return "fsync (Sync)", true
		case "WriteFileAtomic":
			return "durable replace (WriteFileAtomic)", true
		case "Commit", "Checkpoint":
			if storeLike(recvTN) {
				return "durable store " + name, true
			}
		case "Read", "Write":
			if recvTN != nil && recvTN.Pkg() != nil && recvTN.Pkg().Path() == "net" {
				return "net.Conn " + name, true
			}
			if recvTN != nil && recvTN.Pkg() != nil && recvTN.Pkg().Path() == "io" {
				return "stream I/O (io." + recvTN.Name() + "." + name + ")", true
			}
		}
	}
	return "", false
}

// storeLike reports whether tn is a durable-store type: named Store, or
// declared in a package whose name says store.
func storeLike(tn *types.TypeName) bool {
	if tn == nil {
		return false
	}
	if tn.Name() == "Store" {
		return true
	}
	if pkg := tn.Pkg(); pkg != nil && strings.Contains(pkg.Name(), "store") {
		return true
	}
	return false
}
