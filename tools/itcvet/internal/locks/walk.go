package locks

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Level is how strongly a lock is held; holding more satisfies needing less.
type Level int

const (
	None  Level = iota
	Read        // RLock
	Write       // Lock
)

// Held is the set of locks held on the current path, each at its level. A
// lock that is not held has no entry.
type Held map[Key]Level

func (h Held) clone() Held {
	out := make(Held, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// meet merges two path states: a lock stays held only if both paths hold
// it, at the weaker of the two levels.
func meet(a, b Held) Held {
	out := Held{}
	for k, v := range a {
		if w := min(v, b[k]); w > None {
			out[k] = w
		}
	}
	return out
}

// Keys returns the held locks, sorted.
func (h Held) Keys() []Key {
	out := make([]Key, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// An Observer is told what a function does under the locks it holds. Each
// analyzer implements the events it checks and leaves the rest empty. held
// is shared between paths: read it, never change it.
type Observer interface {
	// Access: sel is read, or written (assigned, incremented, its address
	// taken, a range target).
	Access(sel *ast.SelectorExpr, write bool, held Held)
	// Acquire: a Lock or RLock of key at pos; held is the state before it.
	Acquire(key Key, pos token.Pos, held Held)
	// Call: any call that is not itself a lock operation, before its
	// callee expression and arguments are walked. The call a go or defer
	// statement makes later is not one; evaluating its operands now is.
	Call(call *ast.CallExpr, held Held)
	// Blocking: a channel send or receive, or a select with no default.
	// A comm operation a select has chosen is not one.
	Blocking(pos token.Pos, what string, held Held)
	// LiteralEntry is what a function literal's body starts out holding,
	// given the state where the literal is written. It is asked for every
	// literal but a go statement's, which holds nothing.
	LiteralEntry(at Held) Held
}

// A Walker follows one function body path by path: a conservative abstract
// interpretation, not a proof. A Held is never changed once made — apply
// copies — so one state can be handed to every branch. What the walk
// approximates, for both analyzers:
//
//   - Branches merge to the weakest level held on any incoming path (meet),
//     and a branch that provably ends — return, panic, break, continue,
//     goto — is left out of the merge, so "if bad { mu.Unlock(); return }"
//     does not poison the rest of the function.
//   - Every branch statement ends its path, so what a break or continue
//     path held is dropped at the loop exit rather than merged into it.
//   - A loop body merges with the zero-iteration path; a switch or select
//     merges its non-terminating arms, and the entry state unless a default
//     guarantees some arm runs.
//   - A deferred Unlock changes nothing where it is written; a lock
//     operation in expression position is reported to the observer but
//     cannot change the path's state.
//   - A go statement's literal body holds nothing. Any other literal,
//     deferred ones included, starts from Observer.LiteralEntry — the one
//     place the two analyzers differ by intent: lockcheck lets it inherit
//     the state where it is written (approximating synchronous use),
//     lockorder gives it nothing (it may run anywhere).
//   - Operands a go or defer statement evaluates on the spot — arguments, a
//     non-literal callee expression — are walked under the current state.
type Walker struct {
	Inv *Inventory
	Obs Observer
	// Recv, when set, narrows lock operations to those made through that
	// identifier — lockcheck's reading, which must not take another
	// instance's lock for the receiver's. Nil conflates instances per type.
	Recv types.Object
}

// Walk follows decl's body from the state its //itcvet:holds annotations
// declare.
func (w *Walker) Walk(decl *ast.FuncDecl) {
	w.block(decl.Body.List, w.Inv.EntryState(decl))
}

func (w *Walker) block(list []ast.Stmt, st Held) Held {
	for _, s := range list {
		st = w.stmt(s, st)
	}
	return st
}

func (w *Walker) stmt(s ast.Stmt, st Held) Held {
	switch s := s.(type) {
	case nil:
		return st
	case *ast.ExprStmt:
		if op, ok := w.lockOp(s.X); ok {
			return w.apply(st, op, s.X.Pos())
		}
		w.expr(s.X, st, false)
	case *ast.DeferStmt:
		if _, ok := w.lockOp(s.Call); ok {
			return st
		}
		w.later(s.Call, st, w.Obs.LiteralEntry(st))
	case *ast.GoStmt:
		w.later(s.Call, st, nil)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, st, false)
		}
		for _, l := range s.Lhs {
			w.lvalue(l, st)
		}
	case *ast.IncDecStmt:
		w.lvalue(s.X, st)
	case *ast.IfStmt:
		st = w.stmt(s.Init, st)
		w.expr(s.Cond, st, false)
		thenOut := w.block(s.Body.List, st)
		elseOut := st
		if s.Else != nil {
			elseOut = w.stmt(s.Else, st)
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
		w.expr(s.Cond, st, false)
		bodyOut := w.block(s.Body.List, st)
		bodyOut = w.stmt(s.Post, bodyOut)
		return meet(st, bodyOut)
	case *ast.RangeStmt:
		w.expr(s.X, st, false)
		w.lvalue(s.Key, st)
		w.lvalue(s.Value, st)
		bodyOut := w.block(s.Body.List, st)
		return meet(st, bodyOut)
	case *ast.SwitchStmt:
		st = w.stmt(s.Init, st)
		w.expr(s.Tag, st, false)
		return w.clauses(s.Body.List, st)
	case *ast.TypeSwitchStmt:
		st = w.stmt(s.Init, st)
		w.stmt(s.Assign, st)
		return w.clauses(s.Body.List, st)
	case *ast.SelectStmt:
		if !hasDefault(s.Body.List) {
			w.Obs.Blocking(s.Pos(), "select with no default", st)
		}
		return w.clauses(s.Body.List, st)
	case *ast.BlockStmt:
		return w.block(s.List, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, st, false)
		}
	case *ast.SendStmt:
		w.Obs.Blocking(s.Pos(), "channel send", st)
		w.expr(s.Chan, st, false)
		w.expr(s.Value, st, false)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, st, false)
					}
				}
			}
		}
	}
	return st
}

// later walks the call of a go or defer statement: its operands now, under
// st; its body, when the callee is a literal, from entry.
func (w *Walker) later(call *ast.CallExpr, st, entry Held) {
	for _, arg := range call.Args {
		w.expr(arg, st, false)
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		w.block(fl.Body.List, entry)
	} else {
		w.expr(call.Fun, st, false)
	}
}

// hasDefault reports whether a switch or select body has a default arm.
func hasDefault(clauses []ast.Stmt) bool {
	for _, cl := range clauses {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				return true
			}
		case *ast.CommClause:
			if cl.Comm == nil {
				return true
			}
		}
	}
	return false
}

// clauses merges switch and select arms.
func (w *Walker) clauses(list []ast.Stmt, st Held) Held {
	outs := []Held{}
	for _, cl := range list {
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.expr(e, st, false)
			}
			body = cl.Body
		case *ast.CommClause:
			w.comm(cl.Comm, st)
			body = cl.Body
		}
		if out := w.block(body, st); !terminates(body) {
			outs = append(outs, out)
		}
	}
	if !hasDefault(list) || len(outs) == 0 {
		outs = append(outs, st)
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged = meet(merged, o)
	}
	return merged
}

// comm walks a select arm's send or receive. Its operands are evaluated
// under st like any expression; the channel operation itself is not a
// Blocking event — the select was, if it can park at all.
func (w *Walker) comm(s ast.Stmt, st Held) {
	recv := func(e ast.Expr) {
		if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			e = u.X
		}
		w.expr(e, st, false)
	}
	switch s := s.(type) {
	case *ast.SendStmt:
		w.expr(s.Chan, st, false)
		w.expr(s.Value, st, false)
	case *ast.ExprStmt:
		recv(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			recv(r)
		}
		for _, l := range s.Lhs {
			w.lvalue(l, st)
		}
	}
}

func (w *Walker) lockOp(e ast.Expr) (Op, bool) {
	op, ok := w.Inv.LockOp(e)
	if ok && w.Recv != nil {
		id, isIdent := op.Owner.(*ast.Ident)
		ok = isIdent && w.Inv.info.Uses[id] == w.Recv
	}
	return op, ok
}

// apply returns st after op, telling the observer of an acquisition first.
func (w *Walker) apply(st Held, op Op, pos token.Pos) Held {
	out := st.clone()
	switch op.Name {
	case "Lock":
		w.Obs.Acquire(op.Key, pos, st)
		out[op.Key] = Write
	case "RLock":
		w.Obs.Acquire(op.Key, pos, st)
		out[op.Key] = max(out[op.Key], Read)
	case "Unlock", "RUnlock":
		delete(out, op.Key)
	}
	return out
}

// lvalue walks an assignment target.
func (w *Walker) lvalue(e ast.Expr, st Held) {
	switch e := e.(type) {
	case nil, *ast.Ident:
		// Absent, local or blank: nothing is touched.
	case *ast.SelectorExpr:
		w.expr(e, st, true)
	case *ast.IndexExpr:
		w.expr(e.X, st, true) // m[k] = v mutates the container
		w.expr(e.Index, st, false)
	case *ast.StarExpr:
		w.expr(e.X, st, true)
	case *ast.ParenExpr:
		w.lvalue(e.X, st)
	default:
		w.expr(e, st, false)
	}
}

// expr walks an expression read or, when write is set, written.
func (w *Walker) expr(e ast.Expr, st Held, write bool) {
	switch e := e.(type) {
	case nil:
	case *ast.SelectorExpr:
		w.Obs.Access(e, write, st)
		w.expr(e.X, st, write) // v.field.sub: touching sub touches field
	case *ast.CallExpr:
		if op, ok := w.lockOp(e); ok {
			w.apply(st, op, e.Pos())
			return
		}
		w.Obs.Call(e, st)
		w.expr(e.Fun, st, false)
		for _, a := range e.Args {
			w.expr(a, st, false)
		}
	case *ast.FuncLit:
		w.block(e.Body.List, w.Obs.LiteralEntry(st))
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			w.expr(e.X, st, true) // the address escapes the lock's reach
		case token.ARROW:
			w.Obs.Blocking(e.Pos(), "channel receive", st)
			w.expr(e.X, st, false)
		default:
			w.expr(e.X, st, write)
		}
	case *ast.StarExpr:
		w.expr(e.X, st, write)
	case *ast.ParenExpr:
		w.expr(e.X, st, write)
	case *ast.IndexExpr:
		w.expr(e.X, st, write)
		w.expr(e.Index, st, false)
	case *ast.SliceExpr:
		w.expr(e.X, st, write)
		w.expr(e.Low, st, false)
		w.expr(e.High, st, false)
		w.expr(e.Max, st, false)
	case *ast.BinaryExpr:
		w.expr(e.X, st, false)
		w.expr(e.Y, st, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el, st, false)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Key, st, false)
		w.expr(e.Value, st, false)
	case *ast.TypeAssertExpr:
		w.expr(e.X, st, write)
	}
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
