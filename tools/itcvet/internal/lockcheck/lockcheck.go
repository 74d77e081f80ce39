// Package lockcheck machine-checks the tree's "guarded by" comments.
//
// Struct fields protected by a mutex carry the canonical annotation
//
//	field T // guarded by mu
//
// (or the same text as the last line of the field's doc comment), where mu
// names a sync.Mutex or sync.RWMutex field of the same struct. For every
// method of such a struct, lockcheck walks the body tracking, per lock, a
// held level — none, read (RLock), write (Lock) — along each control-flow
// path, and reports any access to a guarded field on a path where the lock
// is not held: reads need at least the read level, writes the write level.
// This is exactly the class of bug PR 2 fixed by hand in CallbackTable,
// where an unlocked counter read raced the break path.
//
// The walk itself — paths, merges, literals, goroutines, //itcvet:holds
// entry states, and what it approximates — is package locks' Walker, shared
// with lockorder (DESIGN.md §7). What is lockcheck's own: only lock
// operations made through the receiver identifier count (another value's
// lock is not the receiver's), a function literal that is not a goroutine
// body inherits the state where it is written, and helper methods
// documented to run under the lock say so with //itcvet:holds mu (or
// //itcvet:holds mu(read)), which sets the entry state instead of
// suppressing the check.
//
// Accesses through anything but the receiver identifier (aliases, copies,
// other values of the type) are out of scope, as are constructors —
// objects not yet published need no lock.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"itcfs/tools/itcvet/internal/check"
	"itcfs/tools/itcvet/internal/locks"
)

// Analyzer is the lockcheck pass.
var Analyzer = &check.Analyzer{
	Name:     "lockcheck",
	Doc:      "verify that fields annotated 'guarded by mu' are only touched with the lock held",
	Category: "unguarded",
	Run:      run,
}

func run(pass *check.Pass) {
	inv := locks.NewInventory(pass.Files, pass.Info)
	// Bind each annotated field to its lock, validating that the annotation
	// names a mutex field of the same struct.
	guarded := map[*types.TypeName]map[string]string{} // struct -> field -> lock
	for _, s := range inv.Structs {
		fields := map[string]string{}
		for _, g := range s.Guards {
			if !s.HasMutex(g.Lock) {
				pass.Reportf(g.Field.Pos(),
					"guarded-by annotation names %q, which is not a sync.Mutex or sync.RWMutex field of %s",
					g.Lock, s.Type.Name())
				continue
			}
			for _, name := range g.Field.Names {
				fields[name.Name] = g.Lock
			}
		}
		if len(fields) > 0 {
			guarded[s.Type] = fields
		}
	}
	if len(guarded) == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			names := fd.Recv.List[0].Names
			if len(names) == 0 || names[0].Name == "_" {
				continue
			}
			recv := pass.Info.Defs[names[0]]
			if recv == nil {
				continue
			}
			tn := check.NamedOf(recv.Type())
			if guarded[tn] == nil {
				continue
			}
			c := &checker{pass: pass, recv: recv, typ: tn.Name(), fields: guarded[tn]}
			(&locks.Walker{Inv: inv, Obs: c, Recv: recv}).Walk(fd)
		}
	}
}

// checker observes one method's walk: the accesses it makes through its
// receiver to guarded fields, against the level held at each.
type checker struct {
	pass   *check.Pass
	recv   types.Object
	typ    string            // the receiver's struct
	fields map[string]string // its guarded fields -> lock
}

func (c *checker) Acquire(locks.Key, token.Pos, locks.Held) {}
func (c *checker) Call(*ast.CallExpr, locks.Held)           {}
func (c *checker) Blocking(token.Pos, string, locks.Held)   {}
func (c *checker) LiteralEntry(at locks.Held) locks.Held    { return at }

// Access reports a guarded-field access made without the needed level.
func (c *checker) Access(sel *ast.SelectorExpr, write bool, held locks.Held) {
	id, ok := sel.X.(*ast.Ident)
	if !ok || c.pass.Info.Uses[id] != c.recv {
		return
	}
	lock, guarded := c.fields[sel.Sel.Name]
	if !guarded {
		return
	}
	switch level := held[locks.Key{Type: c.typ, Field: lock}]; {
	case level == locks.None:
		verb := "read"
		if write {
			verb = "written"
		}
		c.pass.Reportf(sel.Pos(),
			"%s.%s is guarded by %s but %s here on a path that does not hold it (//itcvet:holds %s on the method if every caller locks, or //itcvet:allow unguarded -- why)",
			c.typ, sel.Sel.Name, lock, verb, lock)
	case level == locks.Read && write:
		c.pass.Reportf(sel.Pos(),
			"%s.%s is written here while %s is held only for reading",
			c.typ, sel.Sel.Name, lock)
	}
}
