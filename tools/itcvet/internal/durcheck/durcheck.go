// Package durcheck enforces error discipline on the durability plane.
//
// The server's integrity story (§2 of the paper, DESIGN.md §6) rests on one
// rule: nothing is acknowledged until it is on disk, and a store that has
// failed stays failed. Every function in that chain — Store.Commit, Sync,
// Checkpoint, Recover, the per-volume journal writes (BeginVolume,
// DropVolume, PutLoc, PutProt), WAL appends, os.File.Sync and the atomic
// replace — reports failure through its error return, and the caller must
// either propagate it or latch it. Discarding one of those errors silently
// converts "ack after fsync" into "ack and hope": the client sees success
// for an update the disk never saw.
//
// durcheck therefore flags any durability call whose error is
//
//   - ignored outright (the call stands alone as a statement, or is
//     deferred with no wrapper),
//   - assigned to the blank identifier, or
//   - captured in a variable that is then never read, or read only as an
//     argument to logging (log-and-continue).
//
// A durability call is a method from the set above whose receiver belongs
// to the durability plane: a type named Store or File, or any type declared
// in a package whose name contains "store" or is "os"; WriteFileAtomic
// counts on any receiver. Reading the error in a condition, returning it,
// storing it in a field or passing it to a non-logging function (including
// fmt.Errorf wrapping) all count as propagation; passing it only to
// Print/Printf/Println/Log/Logf does not. Genuine best-effort sites carry
// the standard escape hatch:
//
//	//itcvet:allow durability -- <why>
package durcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"itcfs/tools/itcvet/internal/check"
)

// Analyzer is the durcheck pass.
var Analyzer = &check.Analyzer{
	Name:          "durcheck",
	Doc:           "durability-plane errors (Store.Commit/Sync/Checkpoint/Recover, WAL appends, fsync) must be propagated or latched, never dropped or merely logged",
	Category:      "durability",
	SkipTestFiles: true,
	Run:           run,
}

// durMethods are the durability-plane method names (on store-like or
// file-like receivers).
var durMethods = map[string]bool{
	"Commit": true, "Sync": true, "Checkpoint": true, "Recover": true,
	"BeginVolume": true, "DropVolume": true, "PutLoc": true, "PutProt": true,
	"Append": true,
}

// loggers are call names through which reading an error does not count as
// handling it.
var loggers = map[string]bool{
	"Print": true, "Printf": true, "Println": true, "Log": true, "Logf": true,
}

func run(pass *check.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
}

// checkBody scans one function body statement-wise; expression-position
// durability calls (returned, compared, passed on) are handled by the
// caller of that expression and need no finding.
func checkBody(pass *check.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if name, ok := durCall(pass, s.X); ok {
				pass.Reportf(s.X.Pos(),
					"%s error is ignored; durability errors must be propagated or latched, or the ack-after-fsync contract silently breaks", name)
			}
		case *ast.DeferStmt:
			if name, ok := durCall(pass, s.Call); ok {
				pass.Reportf(s.Call.Pos(),
					"deferred %s discards its error; durability errors must be propagated or latched", name)
			}
		case *ast.AssignStmt:
			checkAssign(pass, body, s)
		}
		return true
	})
}

// checkAssign inspects an assignment whose right side contains durability
// calls and classifies what happens to each call's error value.
func checkAssign(pass *check.Pass, body *ast.BlockStmt, s *ast.AssignStmt) {
	// Map each durability call on the Rhs to the identifier receiving its
	// error: position i for 1:1 assignments, the last Lhs for a single
	// multi-value call (rec, err := st.Recover()).
	type bind struct {
		name string
		lhs  ast.Expr
	}
	var binds []bind
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		if name, ok := durCall(pass, s.Rhs[0]); ok {
			binds = append(binds, bind{name, s.Lhs[len(s.Lhs)-1]})
		}
	} else {
		for i, r := range s.Rhs {
			if name, ok := durCall(pass, r); ok && i < len(s.Lhs) {
				binds = append(binds, bind{name, s.Lhs[i]})
			}
		}
	}
	for _, b := range binds {
		id, ok := b.lhs.(*ast.Ident)
		if !ok {
			continue // field or index target: stored, i.e. latched
		}
		if id.Name == "_" {
			pass.Reportf(id.Pos(),
				"%s error is assigned to _; durability errors must be propagated or latched", b.name)
			continue
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		switch classifyUses(pass, body, obj, s.End()) {
		case useNone:
			pass.Reportf(id.Pos(),
				"%s error is captured in %s but never read afterwards; durability errors must be propagated or latched", b.name, id.Name)
		case useLogOnly:
			pass.Reportf(id.Pos(),
				"%s error is only logged; log-and-continue drops the failure — propagate or latch it", b.name)
		}
	}
}

type useClass int

const (
	useNone useClass = iota
	useLogOnly
	usePropagated
)

// classifyUses looks at every read of obj after pos within body.
func classifyUses(pass *check.Pass, body *ast.BlockStmt, obj types.Object, pos token.Pos) useClass {
	cls := useNone
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || id.Pos() <= pos || pass.Info.Uses[id] != obj {
			return true
		}
		if isAssignTarget(stack, id) {
			return true // overwritten, not read
		}
		if isNilCompare(stack, id) {
			return true // `err != nil` alone decides nothing about the value's fate
		}
		if insideLoggingCall(pass, stack, id) {
			if cls < useLogOnly {
				cls = useLogOnly
			}
			return true
		}
		cls = usePropagated
		return true
	})
	return cls
}

// isAssignTarget reports whether id appears on the left side of the
// nearest enclosing assignment.
func isAssignTarget(stack []ast.Node, id *ast.Ident) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if as, ok := stack[i].(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if l == ast.Expr(id) {
					return true
				}
			}
			return false
		}
	}
	return false
}

// isNilCompare reports whether id's immediate context is an equality
// comparison (err != nil): a test, not a handling of the value. The branch
// it guards is classified by what it does with the error, not by the test.
func isNilCompare(stack []ast.Node, id *ast.Ident) bool {
	if len(stack) < 2 {
		return false
	}
	be, ok := stack[len(stack)-2].(*ast.BinaryExpr)
	return ok && (be.Op == token.EQL || be.Op == token.NEQ)
}

// insideLoggingCall reports whether id is an argument of a call whose name
// is in the logging set (fmt.Printf, log.Printf, recorder.Log, t.Logf...).
// fmt.Errorf is deliberately not in the set: wrapping is propagation.
func insideLoggingCall(pass *check.Pass, stack []ast.Node, id *ast.Ident) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		name := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if loggers[name] {
			for _, arg := range call.Args {
				if arg.Pos() <= id.Pos() && id.End() <= arg.End() {
					return true
				}
			}
		}
		return false // id feeds a non-logging call: propagation
	}
	return false
}

// durCall reports whether e is a durability-plane call returning an error,
// and names it for the diagnostic.
func durCall(pass *check.Pass, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !returnsError(sig) {
		return "", false
	}
	name := sel.Sel.Name
	if name == "WriteFileAtomic" {
		return callName(sig, name), true
	}
	if !durMethods[name] {
		return "", false
	}
	tn := check.NamedOf(sig.Recv().Type())
	if tn == nil || !durReceiver(tn) {
		return "", false
	}
	return callName(sig, name), true
}

// durReceiver reports whether tn belongs to the durability plane.
func durReceiver(tn *types.TypeName) bool {
	if tn.Name() == "Store" || tn.Name() == "File" {
		return true
	}
	if pkg := tn.Pkg(); pkg != nil {
		if strings.Contains(pkg.Name(), "store") || pkg.Name() == "os" {
			return true
		}
	}
	return false
}

func callName(sig *types.Signature, method string) string {
	if tn := check.NamedOf(sig.Recv().Type()); tn != nil {
		return tn.Name() + "." + method
	}
	return method
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
