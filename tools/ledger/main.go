// Command ledger prints the counts every CHANGES.md entry quotes, so a PR's
// before/after table is two runs of one program and not a command retyped
// from an earlier entry:
//
//	go run ./tools/ledger [file.go ...]
//
// From the module root it prints, sorted and byte-identical across runs:
//
//   - lines: non-test Go lines that are neither blank nor only comment, per
//     package, for the tree (bench/ and tools/ left out) and for tools/
//     (analyzer fixtures under testdata left out of both), then for each
//     file named on the command line;
//   - tests: the same count over the tree's _test.go files, so code moved
//     from the tree into a test file shows;
//   - exported: exported names of the tree's non-main packages — functions,
//     methods (of unexported types too), types, constants, variables and
//     struct fields;
//   - test-only: the exported functions and methods of those packages whose
//     name no non-test file of the tree or of bench/ mentions outside its
//     own declaration, so that only tests call them (a name, not a type,
//     is matched: a method whose name another type's caller uses counts as
//     called);
//   - options: the independently settable values — the exported fields of
//     every exported struct type of the tree's non-main packages whose name
//     ends in Config or Policy (the cost table among them), one line per
//     type, and the flags of the three commands;
//   - locks: the header of `itcvet -lockgraph ./...`, read from DESIGN.md
//     §7's block, which tools/itcvet's TestDeterminism holds equal to it.
//
// It reads source with go/scanner and go/parser alone: nothing is built,
// type-checked or run.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := ledger(".", os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

// commands are the directories whose flags are options.
var commands = []string{"cmd/itcbench", "cmd/itcfs", "cmd/itcfsd"}

// tally is a total and its parts by name.
type tally struct {
	total int
	parts map[string]int
}

func (t *tally) add(name string, n int) {
	if t.parts == nil {
		t.parts = make(map[string]int)
	}
	t.parts[name] += n
	t.total += n
}

func (t *tally) print(w io.Writer, label, what string) {
	fmt.Fprintf(w, "%s %d  # %s\n", label, t.total, what)
	names := make([]string, 0, len(t.parts))
	for name := range t.parts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s   %-40s %d\n", label, name, t.parts[name])
	}
}

// ledger writes the ledger of the module rooted at root, with one more
// line count for each of files (paths relative to root).
func ledger(root string, files []string, w io.Writer) error {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fmt.Errorf("run from the module root: %w", err)
	}
	var tree, tools, exported, options tally
	var calls callers
	tests := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		inTools := dir == "tools" || strings.HasPrefix(dir, "tools/")
		inBench := dir == "bench" || strings.HasPrefix(dir, "bench/")
		test := strings.HasSuffix(rel, "_test.go")
		if (inTools || inBench) && test {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		switch {
		case inBench:
			f, err := parseSource(src)
			if err != nil {
				return fmt.Errorf("%s: %w", rel, err)
			}
			calls.refer(f)
			return nil
		case inTools:
			tools.add(dir, codeLines(src))
			return nil
		case test:
			tests += codeLines(src)
			return nil
		}
		tree.add(dir, codeLines(src))
		f, err := parseSource(src)
		if err != nil {
			return fmt.Errorf("%s: %w", rel, err)
		}
		if f.Name.Name != "main" {
			exported.add(dir, exportedNames(f))
			calls.declare(f)
			for typ, n := range optionStructs(f) {
				options.add(f.Name.Name+"."+typ, n)
			}
		}
		calls.refer(f)
		for _, c := range commands {
			if c == dir {
				options.add(c+" flags", flagDefinitions(f))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tree.print(w, "lines tree", "non-test, non-blank, non-comment; bench/ and tools/ excluded")
	tools.print(w, "lines tools", "the same count over tools/, fixtures excluded")
	fmt.Fprintf(w, "tests %d  # the lines tree count over the tree's _test.go files\n", tests)
	for _, name := range files {
		src, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "lines file %-40s %d\n", filepath.ToSlash(name), codeLines(src))
	}
	exported.print(w, "exported", "funcs, methods, types, consts, vars, struct fields of the tree's non-main packages")
	testOnly := calls.uncalled()
	fmt.Fprintf(w, "test-only %d  # exported funcs and methods no non-test file of the tree or bench/ names\n", len(testOnly))
	for _, name := range testOnly {
		fmt.Fprintf(w, "test-only   %s\n", name)
	}
	options.print(w, "options", "exported fields of the exported *Config and *Policy structs, and flags of the three commands")
	header, err := lockgraphHeader(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "locks %s  # DESIGN.md §7 = itcvet -lockgraph ./... (TestDeterminism)\n", header)
	return nil
}

// parseSource parses one file's declarations and bodies.
func parseSource(src any) (*ast.File, error) {
	return parser.ParseFile(token.NewFileSet(), "", src, parser.SkipObjectResolution)
}

// codeLines counts the lines of src that carry code: some part of a token
// that is not a comment (for a raw string over several lines, its
// non-blank lines).
func codeLines(src []byte) int {
	fset := token.NewFileSet()
	file := fset.AddFile("", -1, len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, scanner.ScanComments)
	lines := bytes.Split(src, []byte("\n"))
	code := make(map[int]bool)
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.COMMENT || tok == token.SEMICOLON && lit == "\n" {
			continue
		}
		first := file.Line(pos)
		for i := 0; i <= strings.Count(lit, "\n"); i++ {
			if len(bytes.TrimSpace(lines[first+i-1])) > 0 {
				code[first+i] = true
			}
		}
	}
	return len(code)
}

// exportedNames counts the exported names f declares at package level, the
// exported methods of any type, and the exported fields of any struct type
// declared at package level.
func exportedNames(f *ast.File) int {
	n := 0
	count := func(idents ...*ast.Ident) {
		for _, id := range idents {
			if id.IsExported() {
				n++
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			count(d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					count(s.Names...)
				case *ast.TypeSpec:
					count(s.Name)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							count(field.Names...)
						}
					}
				}
			}
		}
	}
	return n
}

// callers matches the exported functions and methods of non-main packages
// against the names that non-test code mentions.
type callers struct {
	decls map[string][]string // name → its declarations, as pkg.Recv.Name
	refs  map[string]bool     // names mentioned outside their declarations
}

// declare records f's exported functions and methods.
func (c *callers) declare(f *ast.File) {
	if c.decls == nil {
		c.decls = make(map[string][]string)
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() {
			continue
		}
		full := f.Name.Name + "." + fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			full = f.Name.Name + "." + receiverType(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
		c.decls[fd.Name.Name] = append(c.decls[fd.Name.Name], full)
	}
}

// refer records every identifier f mentions, apart from the names its
// function declarations declare.
func (c *callers) refer(f *ast.File) {
	if c.refs == nil {
		c.refs = make(map[string]bool)
	}
	own := make(map[*ast.Ident]bool)
	ast.Inspect(f, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.FuncDecl:
			own[n.Name] = true
		case *ast.Ident:
			if !own[n] {
				c.refs[n.Name] = true
			}
		}
		return true
	})
}

// uncalled returns, sorted, the declarations whose name nothing mentions.
func (c *callers) uncalled() []string {
	var out []string
	for name, full := range c.decls {
		if !c.refs[name] {
			out = append(out, full...)
		}
	}
	sort.Strings(out)
	return out
}

// receiverType names a method's receiver type: T for T, *T, T[P] or *T[P].
func receiverType(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// optionStructs maps each exported struct type f declares at package level
// whose name ends in Config or Policy to its number of exported fields.
func optionStructs(f *ast.File) map[string]int {
	out := make(map[string]int)
	for _, decl := range f.Decls {
		d, ok := decl.(*ast.GenDecl)
		if !ok || d.Tok != token.TYPE {
			continue
		}
		for _, spec := range d.Specs {
			s := spec.(*ast.TypeSpec)
			st, ok := s.Type.(*ast.StructType)
			name := s.Name.Name
			if !ok || !s.Name.IsExported() || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Policy") {
				continue
			}
			n := 0
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					if id.IsExported() {
						n++
					}
				}
			}
			out[name] = n
		}
	}
	return out
}

// flagDefs maps each flag-defining method of package flag and of
// *flag.FlagSet to the position of its name argument.
var flagDefs = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1,
	"UintVar": 1, "Uint64Var": 1, "TextVar": 1, "Var": 1,
}

// flagDefinitions counts the flags f defines: calls of a flag-defining
// method whose name argument is a string literal, on package flag or on
// whatever the file calls its flag.NewFlagSet.
func flagDefinitions(f *ast.File) int {
	sets := map[string]bool{"flag": true}
	ast.Inspect(f, func(node ast.Node) bool {
		if as, ok := node.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			id, isIdent := as.Lhs[0].(*ast.Ident)
			if method, _ := flagCall(as.Rhs[0], sets); isIdent && method == "NewFlagSet" {
				sets[id.Name] = true
			}
		}
		return true
	})
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		method, args := flagCall(node, sets)
		if at, ok := flagDefs[method]; ok && at < len(args) {
			if lit, ok := args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				n++
			}
		}
		return true
	})
	return n
}

// flagCall returns the method and arguments of node if it is a call
// recv.method(...) with recv one of the identifiers in recvs.
func flagCall(node ast.Node, recvs map[string]bool) (method string, args []ast.Expr) {
	call, ok := node.(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	if id, ok := sel.X.(*ast.Ident); !ok || !recvs[id.Name] {
		return "", nil
	}
	return sel.Sel.Name, call.Args
}

// lockgraphHeader returns "N locks, M edges" from the lock-order graph
// embedded in DESIGN.md.
func lockgraphHeader(design string) (string, error) {
	doc, err := os.ReadFile(design)
	if err != nil {
		return "", err
	}
	const prefix = "# itcvet lock-order graph: "
	_, rest, ok := strings.Cut(string(doc), "<!-- lockgraph:begin -->")
	if ok {
		_, rest, ok = strings.Cut(rest, prefix)
	}
	if !ok {
		return "", fmt.Errorf("%s: no lock-order graph block", design)
	}
	header, _, _ := strings.Cut(rest, "\n")
	return header, nil
}
