// Package check is the minimal analysis framework under itcvet's
// analyzers. It plays the role golang.org/x/tools/go/analysis plays for
// ordinary vet tools — Analyzer, Pass, diagnostics — reimplemented on the
// standard library alone so the tree builds hermetically, with no module
// downloads. Facts and cross-package analysis are deliberately out of
// scope: every itcvet analyzer is a single-package pass.
//
// Suppression: a diagnostic is dropped when the flagged line, or the line
// directly above it, carries a comment of the form
//
//	//itcvet:allow <category> -- <justification>
//
// where <category> names the analyzer's diagnostic class (wallclock,
// globalrand, unguarded, maporder, lockorder, durability, drift). The
// justification is free text for the reader; only the category is
// machine-checked. lockorder's blocking-while-locked findings have a second
// spelling that covers nothing else and must give its reason:
//
//	//itcvet:allowblocking <justification>
//
// Both are read here and nowhere else. An annotation that is malformed
// (unknown category, empty allowblocking reason) suppresses nothing and is
// diagnosed; so is one that nothing consumed, so stale escapes cannot
// accumulate.
package check

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named check over a single type-checked package.
type Analyzer struct {
	Name string // short lower-case name, shown in diagnostics
	Doc  string // one-paragraph description

	// Category is the //itcvet:allow class that suppresses this
	// analyzer's diagnostics.
	Category string

	// SkipTestFiles excludes *_test.go files from the pass.
	SkipTestFiles bool

	Run func(*Pass)
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	sink     *[]Diagnostic
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string
	Category string
	Pos      token.Position
	Message  string

	blocking bool // also covered by //itcvet:allowblocking
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.analyzer.Name,
		Category: p.analyzer.Category,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportBlockingf records a diagnostic for an operation that can park its
// process while a lock is held: //itcvet:allowblocking <why> suppresses it,
// as does an allow of the analyzer's category.
func (p *Pass) ReportBlockingf(pos token.Pos, format string, args ...any) {
	p.Reportf(pos, format, args...)
	(*p.sink)[len(*p.sink)-1].blocking = true
}

// IsTestFile reports whether the file containing pos is a *_test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PkgNameOf resolves ident to the imported package it names, or nil.
// Resolution goes through the type checker, so shadowed identifiers
// (a local variable named "time") never match.
func (p *Pass) PkgNameOf(ident *ast.Ident) *types.PkgName {
	if obj, ok := p.Info.Uses[ident].(*types.PkgName); ok {
		return obj
	}
	return nil
}

// NamedOf returns the *types.TypeName behind t, unwrapping one pointer; nil
// when t is nil or not a (pointer to a) named type.
func NamedOf(t types.Type) *types.TypeName {
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

// CommentText returns one // comment's text without the marker and
// surrounding space — the form every itcvet annotation is matched in.
func CommentText(c *ast.Comment) string {
	return strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
}

// blockingCategory is the category of the analyzer (lockorder) whose
// blocking findings //itcvet:allowblocking covers. The directive reads as an
// allow of that category narrowed to ReportBlockingf's diagnostics, and is
// not diagnosed when that analyzer is switched off.
const blockingCategory = "lockorder"

// allowSite is one suppression comment: where it is, what it covers, and
// whether any diagnostic consumed it.
type allowSite struct {
	pos       token.Position
	category  string
	blocking  bool // an allowblocking: covers only blocking findings
	malformed bool // unknown category, or an allowblocking with no reason
	used      bool
}

// covers reports whether s suppresses d: same file, same line or the line
// above, same category. A malformed annotation suppresses nothing.
func (s *allowSite) covers(d Diagnostic) bool {
	return !s.malformed && s.category == d.Category && (!s.blocking || d.blocking) &&
		s.pos.Filename == d.Pos.Filename && (s.pos.Line == d.Pos.Line || s.pos.Line == d.Pos.Line-1)
}

// collectAllows scans file comments for both suppression syntaxes; valid
// holds the categories of the analyzers being run.
func collectAllows(fset *token.FileSet, files []*ast.File, valid map[string]bool) []*allowSite {
	var sites []*allowSite
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s, text := &allowSite{pos: fset.Position(c.Pos())}, CommentText(c)
				if why, ok := strings.CutPrefix(text, "itcvet:allowblocking"); ok {
					if !valid[blockingCategory] {
						continue
					}
					s.category, s.blocking = blockingCategory, true
					s.malformed = strings.TrimSpace(why) == ""
				} else if rest, ok := strings.CutPrefix(text, "itcvet:allow"); ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
					rest, _, _ = strings.Cut(rest, "--")
					if fields := strings.Fields(rest); len(fields) > 0 {
						s.category = fields[0]
					}
					s.malformed = !valid[s.category]
				} else {
					continue
				}
				sites = append(sites, s)
			}
		}
	}
	return sites
}

// Run applies every analyzer to the package and returns surviving
// diagnostics: findings not covered by an allow annotation, plus one
// diagnostic per malformed or unused annotation.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	valid := map[string]bool{}
	var cats []string
	for _, a := range analyzers {
		passFiles := files
		if a.SkipTestFiles {
			passFiles = nil
			for _, f := range files {
				if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
					passFiles = append(passFiles, f)
				}
			}
		}
		pass := &Pass{Fset: fset, Files: passFiles, Pkg: pkg, Info: info, analyzer: a, sink: &raw}
		a.Run(pass)
		valid[a.Category] = true
		cats = append(cats, a.Category)
	}

	allows := collectAllows(fset, files, valid)
	var out []Diagnostic
	for _, d := range raw {
		covered := false
		for _, s := range allows {
			if s.covers(d) {
				s.used, covered = true, true
			}
		}
		if !covered {
			out = append(out, d)
		}
	}
	for _, s := range allows {
		var msg string
		switch {
		case s.malformed && s.blocking:
			msg = "malformed itcvet:allowblocking annotation: want //itcvet:allowblocking <why>, with a non-empty justification"
		case s.malformed:
			msg = fmt.Sprintf("malformed itcvet:allow annotation: want //itcvet:allow <category> -- <why>, with category one of %s", strings.Join(cats, ", "))
		case s.used:
			continue
		case s.blocking:
			msg = "unused itcvet:allowblocking annotation: nothing on this or the next line blocks under a lock"
		default:
			msg = fmt.Sprintf("unused itcvet:allow %s annotation: nothing on this or the next line trips it", s.category)
		}
		out = append(out, Diagnostic{Analyzer: "itcvet", Category: "annotation", Pos: s.pos, Message: msg})
	}
	return out
}
