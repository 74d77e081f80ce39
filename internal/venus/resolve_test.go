package venus

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
	"itcfs/internal/vice"
)

// resolveBySplit is the pathname walk as it was before it went in place:
// split the path below the mount prefix into a component slice, look each
// component up through dirEntries (a hold of v.mu per level), re-join the
// rest behind a symbolic link's target and recurse. Kept as the reference
// the in-place walk is compared with.
func (v *Venus) resolveBySplit(p *sim.Proc, path string, followLast bool, depth int) (proto.FID, error) {
	if depth > 16 {
		return proto.FID{}, fmt.Errorf("%w: %s", proto.ErrLoop, path)
	}
	path = unixfs.Clean(path)
	cr, err := v.locate(p, path)
	if err != nil {
		return proto.FID{}, err
	}
	cur := proto.FID{Volume: cr.Volume, Vnode: 1, Uniq: 1}
	prefix := cr.Prefix
	components := splitComponents(path, prefix)
	end := 0
	if prefix != "/" {
		end = len(prefix)
	}
	for i, comp := range components {
		walked := prefix
		if end > 0 {
			walked = path[:end]
		}
		entries, err := v.dirEntries(p, cur, walked)
		if err != nil {
			return proto.FID{}, err
		}
		var found *proto.DirEntry
		for j := range entries {
			if entries[j].Name == comp {
				found = &entries[j]
				break
			}
		}
		if found == nil {
			return proto.FID{}, fmt.Errorf("%w: %s", proto.ErrNoEnt, path)
		}
		last := i == len(components)-1
		if found.Type == proto.TypeSymlink && (!last || followLast) {
			st, err := v.statRef(p, proto.Ref{FID: found.FID}, path)
			if err != nil {
				return proto.FID{}, err
			}
			target := st.Target
			if len(target) == 0 || target[0] != '/' {
				target = unixfs.Join(walked, target)
			}
			rest := ""
			for _, c := range components[i+1:] {
				rest += "/" + c
			}
			return v.resolveBySplit(p, unixfs.Join(target, rest), followLast, depth+1)
		}
		cur = found.FID
		end += 1 + len(comp)
	}
	return cur, nil
}

// splitComponents splits the part of a clean path below prefix into its
// name components.
func splitComponents(path, prefix string) []string {
	rest := path
	if prefix != "/" {
		rest = path[len(prefix):]
	}
	var out []string
	for _, c := range strings.Split(rest, "/") {
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

func TestResolveInPlaceMatchesSplit(t *testing.T) {
	c := newTestCell(t, vice.Revised, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	c.mkVolume("deep", "/u/a/mnt", "satya", 0) // a mount point below a mount point
	c.mkVolume("other", "/other", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	for _, dir := range []string{"/u/a/b", "/u/a/b/c", "/u/a/mnt/d", "/other/o"} {
		if err := v.Mkdir(nil, dir, 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", dir, err)
		}
	}
	for _, file := range []string{"/u/a/b/c/file", "/u/a/mnt/d/x", "/other/o/y", "/u/top"} {
		writeFile(t, v, file, file)
	}
	for _, l := range []struct{ target, path string }{
		{"b", "/u/a/link"},           // relative, used mid-path and last
		{"/u/a/b", "/u/a/abs"},       // absolute
		{"c/file", "/u/a/b/last"},    // to a file: only ever last
		{"/other/o", "/u/a/b/cross"}, // into another volume
		{"mnt/d", "/u/a/tomnt"},      // through a mount point
		{"loop", "/u/loop"},          // to itself
		{"nowhere", "/u/a/dangling"}, // to nothing
		{"../top", "/u/a/up"},        // upwards
	} {
		if err := v.Symlink(nil, l.target, l.path); err != nil {
			t.Fatalf("symlink %s -> %s: %v", l.path, l.target, err)
		}
	}
	// kids is the tree by name (names are unique in it), a link standing for
	// the directory it leads to: a random descent through it mostly resolves,
	// and a random name thrown in now and then mostly does not.
	kids := map[string][]string{
		"":  {"u", "other"},
		"u": {"a", "top", "loop"},
		"a": {"b", "mnt", "link", "abs", "tomnt", "dangling", "up"},
		"b": {"c", "last", "cross"}, "link": {"c", "last", "cross"}, "abs": {"c", "last", "cross"},
		"c":   {"file"},
		"mnt": {"d"}, "d": {"x"}, "tomnt": {"x"},
		"other": {"o"}, "o": {"y"}, "cross": {"y"},
	}
	names := []string{"u", "a", "b", "c", "file", "mnt", "x", "o", "top", "loop", "missing", ".", ".."}
	paths := []string{"/", "/u", "/u/", "//u//a//", "/u/a/mnt", "/u/a/mnt/", "/u/a/link/c/file",
		"/u/a/b/last", "/u/a/abs/last", "/u/a/b/cross/y", "/u/a/tomnt/x", "/u/loop", "/u/loop/x",
		"/u/a/dangling", "/u/a/dangling/x", "/u/a/up", "/u/a/b/c/file/x", "/u/a/missing/b", "/nothing"}
	r := rand.New(rand.NewSource(22))
	for len(paths) < 600 {
		var b strings.Builder
		at := ""
		for n := 1 + r.Intn(6); n > 0; n-- {
			name := names[r.Intn(len(names))]
			if below := kids[at]; len(below) > 0 && r.Intn(8) > 0 {
				name = below[r.Intn(len(below))]
			}
			b.WriteString([]string{"/", "/", "/", "//"}[r.Intn(4)])
			b.WriteString(name)
			at = name
		}
		if r.Intn(4) == 0 {
			b.WriteString("/")
		}
		paths = append(paths, b.String())
	}
	// Warm (the Venus that built the tree) and cold (one that fetches every
	// directory on the way), the last link followed and not.
	cold := c.newVenus("s0", "satya", nil)
	resolved := 0
	for _, path := range paths {
		for _, followLast := range []bool{true, false} {
			want, wantErr := v.resolveBySplit(nil, path, followLast, 0)
			for name, venus := range map[string]*Venus{"warm": v, "cold": cold} {
				got, e, missing, gotErr := venus.walk(nil, path, followLast, false)
				gotErr = walkErr(gotErr, missing)
				if e != nil {
					t.Fatalf("%s walk(%q) without open returned an entry", name, path)
				}
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%s walk(%q, followLast=%t) = %v, %v; by split: %v, %v",
						name, path, followLast, got, gotErr, want, wantErr)
				}
			}
			if wantErr == nil {
				resolved++
			}
		}
	}
	t.Logf("%d of %d walks resolved", resolved, 2*len(paths))
	if resolved < len(paths)/2 {
		t.Fatalf("only %d of %d walks resolved: the paths do not exercise the walk", resolved, 2*len(paths))
	}
}
