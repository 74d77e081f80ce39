// Package locks is itcvet's one model of a lock, shared by lockcheck,
// lockorder and driftcheck's mutex-contract check: an Inventory says which
// struct fields are mutexes, what each guards and which expression operates
// on which lock; a Walker follows a function body keeping the set of locks
// held on each path and tells an Observer what happens under it. DESIGN.md
// §7 describes the model and lists its approximations.
package locks

import (
	"go/ast"
	"go/types"
	"regexp"

	"itcfs/tools/itcvet/internal/check"
)

// Key identifies one lock: a mutex field of a named struct type. Every
// instance of the type shares the key, which is the granularity a lock
// discipline is stated at.
type Key struct {
	Type  string // declaring type name
	Field string // mutex field name
}

func (k Key) String() string { return k.Type + "." + k.Field }

// Less orders keys by type, then field.
func (k Key) Less(o Key) bool {
	if k.Type != o.Type {
		return k.Type < o.Type
	}
	return k.Field < o.Field
}

// guardRE finds "guarded by <lock>" in a field's comment. The annotation
// is canonical — a contract lockcheck enforces — when it is the whole
// comment line (trailing period tolerated); anywhere else it is prose,
// which driftcheck still accepts as the mutex's stated contract.
var guardRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// holdsRE is the entry-state annotation on a method called under its
// receiver's lock: //itcvet:holds mu, or //itcvet:holds mu(read).
var holdsRE = regexp.MustCompile(`^itcvet:holds ([A-Za-z_][A-Za-z0-9_]*)(\(read\))?$`)

// A Mutex is one sync.Mutex or sync.RWMutex field (or pointer to one); an
// embedded mutex goes by its type name.
type Mutex struct {
	Name  string
	Field *ast.Field
}

// A Guard is one field's canonical guarded-by annotation.
type Guard struct {
	Field *ast.Field
	Lock  string // the name it gives, which may not be a mutex of the struct
}

// A Struct is one struct type declared in the package, seen as locks and
// what they guard.
type Struct struct {
	Spec    *ast.TypeSpec
	Type    *types.TypeName
	Mutexes []Mutex         // in field order
	Guards  []Guard         // canonical annotations, in field order
	Named   map[string]bool // every lock a guarded-by names, canonical or in prose
}

// HasMutex reports whether name is one of the struct's mutex fields.
func (s *Struct) HasMutex(name string) bool {
	for _, m := range s.Mutexes {
		if m.Name == name {
			return true
		}
	}
	return false
}

// An Inventory is a package's structs and their locks.
type Inventory struct {
	Structs []*Struct // in source order

	byType map[*types.TypeName]*Struct
	info   *types.Info
}

// NewInventory reads every struct declaration in files.
func NewInventory(files []*ast.File, info *types.Info) *Inventory {
	inv := &Inventory{byType: map[*types.TypeName]*Struct{}, info: info}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, _ := info.Defs[ts.Name].(*types.TypeName)
			if tn == nil {
				return true
			}
			s := &Struct{Spec: ts, Type: tn, Named: map[string]bool{}}
			for _, fld := range st.Fields.List {
				if mu := check.NamedOf(info.TypeOf(fld.Type)); isMutex(mu) {
					for _, name := range fld.Names {
						s.Mutexes = append(s.Mutexes, Mutex{name.Name, fld})
					}
					if len(fld.Names) == 0 {
						s.Mutexes = append(s.Mutexes, Mutex{mu.Name(), fld})
					}
				}
				s.readGuards(fld)
			}
			inv.Structs = append(inv.Structs, s)
			inv.byType[tn] = s
			return true
		})
	}
	return inv
}

// readGuards records what fld's trailing and doc comments say guards it:
// the first canonical line is its Guard, every mention is Named.
func (s *Struct) readGuards(fld *ast.Field) {
	canonical := false
	for _, cg := range []*ast.CommentGroup{fld.Comment, fld.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := check.CommentText(c)
			for _, m := range guardRE.FindAllStringSubmatch(text, -1) {
				s.Named[m[1]] = true
				if !canonical && (text == m[0] || text == m[0]+".") {
					canonical = true
					s.Guards = append(s.Guards, Guard{fld, m[1]})
				}
			}
		}
	}
}

// isMutex reports whether tn is sync.Mutex or sync.RWMutex.
func isMutex(tn *types.TypeName) bool {
	return tn != nil && tn.Pkg() != nil && tn.Pkg().Path() == "sync" &&
		(tn.Name() == "Mutex" || tn.Name() == "RWMutex")
}

// An Op is one Lock, RLock, Unlock or RUnlock call on an inventoried lock.
type Op struct {
	Key   Key
	Name  string   // the method called
	Owner ast.Expr // the value whose field the mutex is
}

// LockOp recognizes owner.<mutex>.Lock() and friends, where owner's static
// type is a struct of this package (or a pointer to one) with that mutex.
func (inv *Inventory) LockOp(e ast.Expr) (Op, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return Op{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return Op{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return Op{}, false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return Op{}, false
	}
	s := inv.byType[check.NamedOf(inv.info.TypeOf(field.X))]
	if s == nil || !s.HasMutex(field.Sel.Name) {
		return Op{}, false
	}
	return Op{Key{s.Type.Name(), field.Sel.Name}, sel.Sel.Name, field.X}, true
}

// EntryState is what decl's //itcvet:holds annotations say it is entered
// holding, each name resolved against the receiver's struct; a name that is
// not one of its mutexes is ignored.
func (inv *Inventory) EntryState(decl *ast.FuncDecl) Held {
	held := Held{}
	fn, _ := inv.info.Defs[decl.Name].(*types.Func)
	if decl.Doc == nil || decl.Recv == nil || fn == nil {
		return held
	}
	s := inv.byType[check.NamedOf(fn.Type().(*types.Signature).Recv().Type())]
	if s == nil {
		return held
	}
	for _, c := range decl.Doc.List {
		m := holdsRE.FindStringSubmatch(check.CommentText(c))
		if m == nil || !s.HasMutex(m[1]) {
			continue
		}
		key := Key{s.Type.Name(), m[1]}
		if m[2] != "" {
			held[key] = max(held[key], Read)
		} else {
			held[key] = Write
		}
	}
	return held
}
