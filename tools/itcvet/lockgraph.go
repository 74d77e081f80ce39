// The -lockgraph mode: load packages outside the vet protocol (via go list
// export data), run lockorder's graph extraction over each, and print one
// merged, deterministic, diffable text graph. DESIGN.md §7 embeds the
// output; ci.sh regenerates it and fails on any diff, which makes the
// checked-in graph both documentation and a regression gate.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"itcfs/tools/itcvet/internal/lockorder"
)

// listPkg is the slice of go list -json output lockgraph consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct {
		Path      string
		Dir       string
		GoVersion string
	}
}

// qualified is a lock node or edge endpoint with its package attached.
type qualified struct {
	pkg string // import path relative to the module
	key lockorder.Key
}

func (q qualified) String() string { return q.pkg + "." + q.key.String() }

func lockgraphMain(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(patterns)
	if err != nil {
		log.Fatal(err)
	}

	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	var targets []*listPkg
	for _, p := range pkgs {
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	// An edge is printed with the call that witnesses it, not its line: the
	// graph pins which lock is taken under which, and an edit that only
	// moves the call leaves it unchanged.
	type edge struct {
		from, to qualified
		via      string
	}
	var nodes []qualified
	var edges []edge
	cyclic := false

	var out bytes.Buffer
	for _, p := range targets {
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				log.Fatal(err)
			}
			files = append(files, f)
		}
		cfg := &vetConfig{
			Compiler:    "gc",
			Dir:         p.Dir,
			ImportPath:  p.ImportPath,
			PackageFile: exports,
		}
		if p.Module != nil {
			cfg.GoVersion = p.Module.GoVersion
		}
		pkg, info, err := typeCheck(fset, files, cfg)
		if err != nil {
			log.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		g := lockorder.BuildGraph(fset, files, pkg, info)

		rel := p.ImportPath
		modDir := ""
		if p.Module != nil {
			rel = strings.TrimPrefix(rel, p.Module.Path+"/")
			modDir = p.Module.Dir
		}
		for _, n := range g.Nodes {
			nodes = append(nodes, qualified{rel, n})
		}
		for _, e := range g.Edges {
			edges = append(edges, edge{
				from: qualified{rel, e.From},
				to:   qualified{rel, e.To},
				via:  e.Via,
			})
		}
		for _, cyc := range lockorder.Cycles(g) {
			cyclic = true
			var parts []string
			parts = append(parts, rel+"."+cyc.Edges[0].From.String())
			for _, e := range cyc.Edges {
				parts = append(parts, fmt.Sprintf("%s.%s (%s)", rel, e.To, relPos(modDir, e.Pos)))
			}
			fmt.Fprintf(&out, "cycle %s\n", strings.Join(parts, " -> "))
		}
	}

	sort.Slice(nodes, func(i, j int) bool { return nodes[i].String() < nodes[j].String() })
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from.String() != edges[j].from.String() {
			return edges[i].from.String() < edges[j].from.String()
		}
		return edges[i].to.String() < edges[j].to.String()
	})

	fmt.Printf("# itcvet lock-order graph: %d locks, %d edges\n", len(nodes), len(edges))
	fmt.Printf("# edge A -> B: some path acquires B while holding A; cycles are potential deadlocks\n")
	for _, n := range nodes {
		fmt.Printf("lock %s\n", n)
	}
	for _, e := range edges {
		fmt.Printf("edge %s -> %s  (%s)\n", e.from, e.to, e.via)
	}
	if cyclic {
		os.Stdout.Write(out.Bytes())
		fmt.Fprintln(os.Stderr, "itcvet -lockgraph: lock-order cycle detected")
		return 1
	}
	return 0
}

// relPos renders a witness position relative to the module root so the
// output is stable across checkouts.
func relPos(modDir string, p token.Position) string {
	name := p.Filename
	if modDir != "" {
		if r, err := filepath.Rel(modDir, name); err == nil {
			name = filepath.ToSlash(r)
		}
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

// goList loads the named patterns and their full dependency closure with
// export data built.
func goList(patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-deps", "-export", "-json=Dir,ImportPath,Name,Export,GoFiles,Standard,DepOnly,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(outPipe)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list %s: %v", strings.Join(patterns, " "), err)
	}
	return pkgs, nil
}
