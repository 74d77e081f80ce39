// Package lockorder machine-checks the tree's lock acquisition discipline,
// the whole-program complement to lockcheck's per-field contracts.
//
// The analyzer treats every sync.Mutex / sync.RWMutex field of a struct
// declared in the package as a lock node, identified by type and field name
// (Server.mu, cbShard.mu) — all instances of a type share one node, which
// is exactly the granularity a lock-ordering discipline is stated at. For
// every function it tracks, along each control-flow path, which locks are
// held (seeded from //itcvet:holds entry states, exactly as lockcheck reads
// them), and builds an acquisition graph:
//
//	A -> B: some path acquires B while holding A,
//
// either directly (s.mu.Lock() under applyMu) or interprocedurally, through
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
// sealed frame into a writer, net.Conn reads and writes) — stalls every
// other path through that lock for an unbounded time, and under the WAL's
// group-commit protocol can deadlock outright. Genuinely intended waits
// (the WAL append that must stay inside applyMu so log order matches apply
// order) carry
//
//	//itcvet:allowblocking <why>
//
// on the flagged line or the line above. The why is free text for the
// reader; unused and empty annotations are themselves diagnosed, so stale
// escapes cannot accumulate. sync.Cond operations are exempt: Wait releases
// the paired mutex by contract.
//
// Approximations, chosen to avoid false positives rather than catch every
// bug: path merges keep only locks held on every incoming path (as
// lockcheck does); goroutine bodies, deferred function literals and
// function literals passed as arguments are analyzed with no locks held
// (asynchronous use); calls that cannot be resolved to a same-package
// declaration contribute no graph edges (the blocking check still sees
// them). Locks are conflated per type, so nesting two instances of the
// same type reports as a self-cycle — which is the conservative reading: a
// program that nests same-type locks needs an instance order the analyzer
// cannot see.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"itcfs/tools/itcvet/internal/check"
)

// Analyzer is the lockorder pass.
var Analyzer = &check.Analyzer{
	Name:     "lockorder",
	Doc:      "build the lock-acquisition graph, report cycles (potential deadlocks) and blocking calls made while a lock is held",
	Category: "lockorder",
	Run:      run,
}

// Key identifies one lock node: a mutex field of a named struct type.
type Key struct {
	Type  string // declaring type name
	Field string // mutex field name
}

func (k Key) String() string { return k.Type + "." + k.Field }

func keyLess(a, b Key) bool {
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	return a.Field < b.Field
}

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

// holdsRE matches lockcheck's //itcvet:holds entry-state annotation.
var holdsRE = regexp.MustCompile(`^itcvet:holds ([A-Za-z_][A-Za-z0-9_]*)(\(read\))?$`)

// allowBlockingRE matches the blocking escape hatch; group 1 is the
// justification, which must be non-empty.
var allowBlockingRE = regexp.MustCompile(`^itcvet:allowblocking(.*)$`)

func run(pass *check.Pass) {
	a := newAnalysis(pass.Fset, pass.Files, pass.Pkg, pass.Info)
	a.analyze()

	// Blocking findings, filtered through //itcvet:allowblocking.
	allows := collectAllowBlocking(pass.Fset, pass.Files)
	for _, b := range a.blocking {
		posn := pass.Fset.Position(b.pos)
		if allowed(allows, posn) {
			continue
		}
		pass.Reportf(b.pos,
			"%s while %s is held; a blocked holder stalls every path through the lock (annotate //itcvet:allowblocking <why> if the wait is intended)",
			b.desc, b.held)
	}
	for _, s := range allows {
		switch {
		case !s.ok:
			pass.Reportf(s.pos,
				"malformed itcvet:allowblocking annotation: want //itcvet:allowblocking <why>, with a non-empty justification")
		case !s.used:
			pass.Reportf(s.pos,
				"unused itcvet:allowblocking annotation: nothing on this or the next line blocks under a lock")
		}
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
		sort.Slice(es, func(i, j int) bool { return keyLess(es[i].To, es[j].To) })
	}
	var nodes []Key
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return keyLess(nodes[i], nodes[j]) })

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

// allowSite is one //itcvet:allowblocking comment.
type allowSite struct {
	file string
	line int
	pos  token.Pos
	ok   bool // has a non-empty justification
	used bool
}

func collectAllowBlocking(fset *token.FileSet, files []*ast.File) []*allowSite {
	var sites []*allowSite
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowBlockingRE.FindStringSubmatch(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")))
				if m == nil {
					continue
				}
				posn := fset.Position(c.Pos())
				sites = append(sites, &allowSite{
					file: posn.Filename, line: posn.Line, pos: c.Pos(),
					ok: strings.TrimSpace(m[1]) != "",
				})
			}
		}
	}
	return sites
}

func allowed(sites []*allowSite, posn token.Position) bool {
	ok := false
	for _, s := range sites {
		if s.ok && s.file == posn.Filename && (s.line == posn.Line || s.line == posn.Line-1) {
			s.used = true
			ok = true
		}
	}
	return ok
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
	directAcq map[Key]token.Pos // locks acquired in the body itself
	calls     []callSite
	allAcq    map[Key]bool // directAcq plus everything reachable callees acquire
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

	mutexes map[*types.TypeName]map[string]bool // struct -> mutex fields
	decls   map[*types.Func]*ast.FuncDecl
	sums    map[*types.Func]*summary

	edges    map[[2]Key]Edge     // deduplicated, least witness
	edgePos  map[Edge]token.Pos  // report position for cycle diagnostics
	blocking []blockFinding
}

func newAnalysis(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *analysis {
	return &analysis{
		fset: fset, files: files, pkg: pkg, info: info,
		mutexes: map[*types.TypeName]map[string]bool{},
		decls:   map[*types.Func]*ast.FuncDecl{},
		sums:    map[*types.Func]*summary{},
		edges:   map[[2]Key]Edge{},
		edgePos: map[Edge]token.Pos{},
	}
}

func (a *analysis) analyze() {
	a.collectMutexes()
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
		if tn := namedOf(recv.Type()); tn != nil {
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
	for tn, fields := range a.mutexes {
		for f := range fields {
			nodes = append(nodes, Key{Type: tn.Name(), Field: f})
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return keyLess(nodes[i], nodes[j]) })
	g.Nodes = nodes
	for _, e := range a.edges {
		g.Edges = append(g.Edges, e)
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		x, y := g.Edges[i], g.Edges[j]
		if x.From != y.From {
			return keyLess(x.From, y.From)
		}
		return keyLess(x.To, y.To)
	})
	return g
}

// collectMutexes finds every sync.Mutex / sync.RWMutex field of every
// struct declared in the package.
func (a *analysis) collectMutexes() {
	for _, f := range a.files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, _ := a.info.Defs[ts.Name].(*types.TypeName)
			if tn == nil {
				return true
			}
			for _, fld := range st.Fields.List {
				if !isMutexType(a.info.TypeOf(fld.Type)) {
					continue
				}
				for _, name := range fld.Names {
					m := a.mutexes[tn]
					if m == nil {
						m = map[string]bool{}
						a.mutexes[tn] = m
					}
					m[name.Name] = true
				}
			}
			return true
		})
	}
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
	sum := &summary{directAcq: map[Key]token.Pos{}, allAcq: map[Key]bool{}}
	w := &walker{a: a, sum: sum}
	st := a.entryState(fn, decl)
	w.block(decl.Body.List, st)
	for k := range sum.directAcq {
		sum.allAcq[k] = true
	}
	sum.mayBlock = len(sum.blockDescs) > 0
	return sum
}

// entryState seeds the held set from //itcvet:holds annotations, resolving
// the named lock against the receiver's type.
func (a *analysis) entryState(fn *types.Func, decl *ast.FuncDecl) state {
	st := state{}
	if decl.Doc == nil || decl.Recv == nil {
		return st
	}
	recvTN := namedOf(fn.Type().(*types.Signature).Recv().Type())
	if recvTN == nil {
		return st
	}
	fields := a.mutexes[recvTN]
	for _, c := range decl.Doc.List {
		m := holdsRE.FindStringSubmatch(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")))
		if m == nil || !fields[m[1]] {
			continue
		}
		st[Key{Type: recvTN.Name(), Field: m[1]}] = true
	}
	return st
}

// state is the set of locks held on the current path.
type state map[Key]bool

func (s state) clone() state {
	out := state{}
	for k := range s {
		out[k] = true
	}
	return out
}

// meet keeps locks held on both paths (must-hold).
func meet(a, b state) state {
	out := state{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// heldKeys returns the sorted held set.
func (s state) heldKeys() []Key {
	out := make([]Key, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i], out[j]) })
	return out
}

// walker walks one function body tracking the held set.
type walker struct {
	a   *analysis
	sum *summary
}

func (w *walker) block(list []ast.Stmt, st state) state {
	for _, s := range list {
		st = w.stmt(s, st)
	}
	return st
}

func (w *walker) stmt(s ast.Stmt, st state) state {
	switch s := s.(type) {
	case nil:
		return st
	case *ast.ExprStmt:
		if key, op, ok := w.a.lockOp(s.X); ok {
			return w.apply(st, key, op, s.X.Pos())
		}
		w.expr(s.X, st)
	case *ast.DeferStmt:
		if _, _, ok := w.a.lockOp(s.Call); ok {
			return st // deferred unlock fires at exit; no change now
		}
		// Deferred work runs at exit with unknowable lock state: analyze the
		// callee body (if a literal) with nothing held, and scan arguments.
		for _, arg := range s.Call.Args {
			w.expr(arg, st)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.block(fl.Body.List, state{})
		}
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.expr(arg, st)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.block(fl.Body.List, state{}) // the goroutine holds nothing
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, st)
		}
		for _, l := range s.Lhs {
			w.expr(l, st)
		}
	case *ast.IncDecStmt:
		w.expr(s.X, st)
	case *ast.IfStmt:
		st = w.stmt(s.Init, st)
		w.expr(s.Cond, st)
		thenOut := w.block(s.Body.List, st.clone())
		elseOut := st.clone()
		if s.Else != nil {
			elseOut = w.stmt(s.Else, st.clone())
		}
		thenDead := terminates(s.Body.List)
		elseDead := s.Else != nil && terminatesStmt(s.Else)
		switch {
		case thenDead && elseDead:
			return st
		case thenDead:
			return elseOut
		case elseDead:
			return thenOut
		default:
			return meet(thenOut, elseOut)
		}
	case *ast.ForStmt:
		st = w.stmt(s.Init, st)
		if s.Cond != nil {
			w.expr(s.Cond, st)
		}
		bodyOut := w.block(s.Body.List, st.clone())
		bodyOut = w.stmt(s.Post, bodyOut)
		return meet(st, bodyOut)
	case *ast.RangeStmt:
		w.expr(s.X, st)
		bodyOut := w.block(s.Body.List, st.clone())
		return meet(st, bodyOut)
	case *ast.SwitchStmt:
		st = w.stmt(s.Init, st)
		if s.Tag != nil {
			w.expr(s.Tag, st)
		}
		return w.clauses(s.Body.List, st)
	case *ast.TypeSwitchStmt:
		st = w.stmt(s.Init, st)
		w.stmt(s.Assign, st)
		return w.clauses(s.Body.List, st)
	case *ast.SelectStmt:
		w.selectStmt(s, st)
		return w.clauses(s.Body.List, st)
	case *ast.BlockStmt:
		return w.block(s.List, st.clone())
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, st)
		}
	case *ast.SendStmt:
		w.blockingOp(s.Pos(), "channel send", st)
		w.expr(s.Chan, st)
		w.expr(s.Value, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, st)
					}
				}
			}
		}
	}
	return st
}

// selectStmt flags a select with no default: every arm can park the holder.
func (w *walker) selectStmt(s *ast.SelectStmt, st state) {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return // default case: the select cannot block
		}
	}
	w.blockingOp(s.Pos(), "select with no default", st)
}

// clauses merges switch/select case bodies (weakest common held set).
func (w *walker) clauses(list []ast.Stmt, st state) state {
	outs := []state{}
	hasDefault := false
	for _, cl := range list {
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.expr(e, st)
			}
			hasDefault = hasDefault || cl.List == nil
			body = cl.Body
		case *ast.CommClause:
			// The comm statement itself is not re-classified as blocking: the
			// enclosing select already was (if it had no default), and a comm
			// op chosen by a ready select does not park the holder.
			hasDefault = hasDefault || cl.Comm == nil
			out := w.block(cl.Body, st.clone())
			if !terminates(cl.Body) {
				outs = append(outs, out)
			}
			continue
		}
		out := w.block(body, st.clone())
		if !terminates(body) {
			outs = append(outs, out)
		}
	}
	if !hasDefault || len(outs) == 0 {
		outs = append(outs, st)
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged = meet(merged, o)
	}
	return merged
}

func (w *walker) apply(st state, key Key, op string, pos token.Pos) state {
	st = st.clone()
	switch op {
	case "Lock", "RLock":
		for held := range st {
			w.a.addEdge(held, key, pos, w.curFunc(pos))
		}
		if _, ok := w.sum.directAcq[key]; !ok {
			w.sum.directAcq[key] = pos
		}
		st[key] = true
	case "Unlock", "RUnlock":
		delete(st, key)
	}
	return st
}

// curFunc names the enclosing function for edge labels; walker is built per
// function, so record it lazily from the analysis decl map.
func (w *walker) curFunc(pos token.Pos) string {
	for fn, decl := range w.a.decls {
		if decl.Body != nil && decl.Pos() <= pos && pos <= decl.End() {
			return funcName(fn)
		}
	}
	return "func"
}

// expr scans an expression for lock operations, blocking operations and
// resolvable calls. Expressions do not change the held set (lock calls in
// expression position would; none exist in this tree and meet-conservatism
// tolerates missing them).
func (w *walker) expr(e ast.Expr, st state) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		if key, op, ok := w.a.lockOp(e); ok {
			// A lock op in expression position (rare); record the edge but
			// leave flow to the statement walker.
			_ = w.apply(st, key, op, e.Pos())
			return
		}
		w.call(e, st)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			w.blockingOp(e.Pos(), "channel receive", st)
		}
		w.expr(e.X, st)
	case *ast.FuncLit:
		w.block(e.Body.List, state{}) // treated as asynchronous: holds nothing
	case *ast.SelectorExpr:
		w.expr(e.X, st)
	case *ast.StarExpr:
		w.expr(e.X, st)
	case *ast.ParenExpr:
		w.expr(e.X, st)
	case *ast.IndexExpr:
		w.expr(e.X, st)
		w.expr(e.Index, st)
	case *ast.SliceExpr:
		w.expr(e.X, st)
		w.expr(e.Low, st)
		w.expr(e.High, st)
		w.expr(e.Max, st)
	case *ast.BinaryExpr:
		w.expr(e.X, st)
		w.expr(e.Y, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el, st)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Key, st)
		w.expr(e.Value, st)
	case *ast.TypeAssertExpr:
		w.expr(e.X, st)
	}
}

// call handles one non-lock call: classify blocking, record resolvable
// same-package callees, scan arguments.
func (w *walker) call(e *ast.CallExpr, st state) {
	if desc, ok := w.a.blockingCall(e); ok {
		w.blockingOp(e.Pos(), desc, st)
	}
	if fn := w.a.calleeOf(e); fn != nil {
		w.sum.calls = append(w.sum.calls, callSite{callee: fn, pos: e.Pos(), held: st.heldKeys()})
	}
	w.expr(e.Fun, st)
	for _, arg := range e.Args {
		w.expr(arg, st)
	}
}

func (w *walker) blockingOp(pos token.Pos, desc string, st state) {
	if len(w.sum.blockDescs) < 3 {
		w.sum.blockDescs = append(w.sum.blockDescs, desc)
	}
	held := st.heldKeys()
	if len(held) == 0 {
		return
	}
	w.a.blocking = append(w.a.blocking, blockFinding{pos: pos, desc: desc, held: held[0]})
}

// lockOp recognizes expr.<mutexfield>.Lock() and friends, where expr's
// static type is a struct declared in this package with that mutex field.
func (a *analysis) lockOp(e ast.Expr) (Key, string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return Key{}, "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return Key{}, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return Key{}, "", false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return Key{}, "", false
	}
	ownerTN := namedOf(a.info.TypeOf(field.X))
	if ownerTN == nil || ownerTN.Pkg() != a.pkg {
		return Key{}, "", false
	}
	if !a.mutexes[ownerTN][field.Sel.Name] {
		return Key{}, "", false
	}
	return Key{Type: ownerTN.Name(), Field: field.Sel.Name}, sel.Sel.Name, true
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
		recvTN := namedOf(a.info.TypeOf(fun.X))
		// sync.Cond is exempt: Wait releases the paired mutex by contract.
		if recvTN != nil && recvTN.Pkg() != nil && recvTN.Pkg().Path() == "sync" {
			return "", false
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

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	tn := namedOf(t)
	if tn == nil || tn.Pkg() == nil || tn.Pkg().Path() != "sync" {
		return false
	}
	return tn.Name() == "Mutex" || tn.Name() == "RWMutex"
}

// namedOf returns the *types.TypeName behind t, unwrapping one pointer.
func namedOf(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// terminatesStmt reports whether control cannot flow past s.
func terminatesStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.IfStmt:
		return terminates(s.Body.List) && s.Else != nil && terminatesStmt(s.Else)
	case *ast.LabeledStmt:
		return terminatesStmt(s.Stmt)
	}
	return false
}

func terminates(list []ast.Stmt) bool {
	return len(list) > 0 && terminatesStmt(list[len(list)-1])
}
