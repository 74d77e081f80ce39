package unixfs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func newFS() *FS {
	var t int64
	return New(func() int64 { t++; return t })
}

func TestPathHelpers(t *testing.T) {
	cases := []struct{ in, clean, base, dir string }{
		{"/", "/", "/", "/"},
		{"/a", "/a", "a", "/"},
		{"/a/b/c", "/a/b/c", "c", "/a/b"},
		{"/a//b/./c/", "/a/b/c", "c", "/a/b"},
		{"/a/b/../c", "/a/c", "c", "/a"},
		{"/../a", "/a", "a", "/"},
	}
	for _, c := range cases {
		if got := Clean(c.in); got != c.clean {
			t.Errorf("Clean(%q) = %q, want %q", c.in, got, c.clean)
		}
		if got := Base(c.in); got != c.base {
			t.Errorf("Base(%q) = %q, want %q", c.in, got, c.base)
		}
		if got := Dir(c.in); got != c.dir {
			t.Errorf("Dir(%q) = %q, want %q", c.in, got, c.dir)
		}
	}
	if got := Join("a", "b/c", "d"); got != "/a/b/c/d" {
		t.Errorf("Join = %q", got)
	}
}

func TestWriteReadFile(t *testing.T) {
	fs := newFS()
	data := []byte("hello vice")
	if err := fs.WriteFile("/f", data, 0o644, "satya"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	st, err := fs.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Type != TypeRegular || st.Size != int64(len(data)) || st.Owner != "satya" || st.Mode != 0o644 {
		t.Fatalf("stat = %+v", st)
	}
}

func TestOverwriteBumpsVersion(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", []byte("v1"), 0o644, "")
	st1, _ := fs.Stat("/f")
	fs.WriteFile("/f", []byte("v2"), 0o644, "")
	st2, _ := fs.Stat("/f")
	if st2.Version <= st1.Version {
		t.Fatalf("version did not advance: %d -> %d", st1.Version, st2.Version)
	}
	if st2.Mtime <= st1.Mtime {
		t.Fatalf("mtime did not advance: %d -> %d", st1.Mtime, st2.Mtime)
	}
	if st2.Ino != st1.Ino {
		t.Fatal("overwrite allocated a new inode")
	}
}

func TestReadMissing(t *testing.T) {
	fs := newFS()
	if _, err := fs.ReadFile("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
	if _, err := fs.ReadFile("/no/such/dir/file"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteIntoMissingDirFails(t *testing.T) {
	fs := newFS()
	if err := fs.WriteFile("/a/b", nil, 0o644, ""); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestRelativePathRejected(t *testing.T) {
	fs := newFS()
	if err := fs.WriteFile("rel", nil, 0o644, ""); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}

func TestMkdirAndReadDir(t *testing.T) {
	fs := newFS()
	if err := fs.MkdirAll("/usr/satya/src", 0o755, "satya"); err != nil {
		t.Fatal(err)
	}
	fs.WriteFile("/usr/satya/a.c", []byte("int main(){}"), 0o644, "satya")
	fs.WriteFile("/usr/satya/b.c", nil, 0o644, "satya")
	entries, err := fs.ReadDir("/usr/satya")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	if strings.Join(names, ",") != "a.c,b.c,src" {
		t.Fatalf("entries = %v", names)
	}
	if entries[2].Type != TypeDir {
		t.Fatal("src not a dir")
	}
}

func TestMkdirExisting(t *testing.T) {
	fs := newFS()
	fs.Mkdir("/d", 0o755, "")
	if err := fs.Mkdir("/d", 0o755, ""); !errors.Is(err, ErrExist) {
		t.Fatalf("err = %v, want ErrExist", err)
	}
	if err := fs.MkdirAll("/d", 0o755, ""); err != nil {
		t.Fatalf("MkdirAll on existing: %v", err)
	}
}

func TestReadDirOnFile(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", nil, 0o644, "")
	if _, err := fs.ReadDir("/f"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("err = %v, want ErrNotDir", err)
	}
}

func TestRemove(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", []byte("data"), 0o644, "")
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/f") {
		t.Fatal("file survived Remove")
	}
	if err := fs.Remove("/f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if got := fs.UsedBytes(); got != 0 {
		t.Fatalf("UsedBytes = %d after remove", got)
	}
}

func TestRemoveDirSemantics(t *testing.T) {
	fs := newFS()
	fs.Mkdir("/d", 0o755, "")
	fs.WriteFile("/d/f", nil, 0o644, "")
	if err := fs.RemoveDir("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("err = %v, want ErrNotEmpty", err)
	}
	if err := fs.Remove("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("err = %v, want ErrIsDir", err)
	}
	fs.Remove("/d/f")
	if err := fs.RemoveDir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveDir("/"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("removing root: %v", err)
	}
}

func TestRemoveAll(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/a/b/c", 0o755, "")
	fs.WriteFile("/a/b/f1", bytes.Repeat([]byte("x"), 100), 0o644, "")
	fs.WriteFile("/a/b/c/f2", bytes.Repeat([]byte("y"), 50), 0o644, "")
	if err := fs.RemoveAll("/a"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a") {
		t.Fatal("tree survived RemoveAll")
	}
	if got := fs.UsedBytes(); got != 0 {
		t.Fatalf("UsedBytes = %d", got)
	}
	if err := fs.RemoveAll("/a"); err != nil {
		t.Fatalf("RemoveAll on missing path: %v", err)
	}
}

// TestRemoveAllKeepsALinkOutsideTheTree removes a tree holding one link of
// a file, and a file alone, whose other link lies outside the tree: the
// outside name must still read the file, and count toward UsedBytes.
func TestRemoveAllKeepsALinkOutsideTheTree(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/a/b", 0o755, "")
	fs.WriteFile("/a/b/f", []byte("linked"), 0o644, "")
	fs.WriteFile("/g", []byte("alone"), 0o644, "")
	if err := fs.Link("/a/b/f", "/keep"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link("/g", "/a/g"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveAll("/a"); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{"/keep": "linked", "/g": "alone"} {
		got, err := fs.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("%s after removing the tree holding its other link: %q, %v; want %q", path, got, err, want)
		}
		if st, _ := fs.Stat(path); st.Nlink != 1 {
			t.Fatalf("%s: Nlink = %d, want 1", path, st.Nlink)
		}
	}
	if got := fs.UsedBytes(); got != int64(len("linked")+len("alone")) {
		t.Fatalf("UsedBytes = %d", got)
	}
	if err := fs.RemoveAll("/keep"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/keep") {
		t.Fatal("/keep survived RemoveAll")
	}
}

func TestRenameFile(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/old", []byte("data"), 0o644, "")
	st1, _ := fs.Stat("/old")
	if err := fs.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/old") {
		t.Fatal("old name survived")
	}
	st2, err := fs.Stat("/new")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Ino != st1.Ino {
		t.Fatal("rename changed the inode")
	}
}

func TestRenameReplacesFile(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/a", []byte("a"), 0o644, "")
	fs.WriteFile("/b", []byte("b"), 0o644, "")
	if err := fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/b")
	if string(got) != "a" {
		t.Fatalf("b = %q", got)
	}
}

func TestRenameDirectorySubtree(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/src/pkg", 0o755, "")
	fs.WriteFile("/src/pkg/f.c", []byte("c"), 0o644, "")
	fs.Mkdir("/dst", 0o755, "")
	if err := fs.Rename("/src", "/dst/moved"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/dst/moved/pkg/f.c")
	if err != nil || string(got) != "c" {
		t.Fatalf("subtree content after rename: %v %q", err, got)
	}
}

func TestRenameDirUnderItselfFails(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/a/b", 0o755, "")
	if err := fs.Rename("/a", "/a/b/a"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}

func TestRenameOntoNonEmptyDirFails(t *testing.T) {
	fs := newFS()
	fs.Mkdir("/a", 0o755, "")
	fs.MkdirAll("/b/x", 0o755, "")
	if err := fs.Rename("/a", "/b"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("err = %v, want ErrNotEmpty", err)
	}
}

func TestSymlinkResolution(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/vice/unix/sun/bin", 0o755, "")
	fs.WriteFile("/vice/unix/sun/bin/cc", []byte("ELF"), 0o755, "")
	// The paper's Figure 3-2: local /bin is a symlink into /vice.
	if err := fs.Symlink("/vice/unix/sun/bin", "/bin"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/bin/cc")
	if err != nil || string(got) != "ELF" {
		t.Fatalf("through-symlink read: %v %q", err, got)
	}
	st, err := fs.Lstat("/bin")
	if err != nil || st.Type != TypeSymlink {
		t.Fatalf("Lstat = %+v, %v", st, err)
	}
	if target, _ := fs.Readlink("/bin"); target != "/vice/unix/sun/bin" {
		t.Fatalf("Readlink = %q", target)
	}
	st, err = fs.Stat("/bin")
	if err != nil || st.Type != TypeDir {
		t.Fatalf("Stat follows: %+v, %v", st, err)
	}
}

func TestRelativeSymlink(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/d/sub", 0o755, "")
	fs.WriteFile("/d/sub/real", []byte("r"), 0o644, "")
	if err := fs.Symlink("sub/real", "/d/alias"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/d/alias")
	if err != nil || string(got) != "r" {
		t.Fatalf("relative symlink: %v %q", err, got)
	}
}

func TestSymlinkLoopDetected(t *testing.T) {
	fs := newFS()
	fs.Symlink("/b", "/a")
	fs.Symlink("/a", "/b")
	if _, err := fs.ReadFile("/a"); !errors.Is(err, ErrLoop) {
		t.Fatalf("err = %v, want ErrLoop", err)
	}
}

func TestHardLink(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", []byte("shared"), 0o644, "")
	if err := fs.Link("/f", "/g"); err != nil {
		t.Fatal(err)
	}
	stf, _ := fs.Stat("/f")
	stg, _ := fs.Stat("/g")
	if stf.Ino != stg.Ino || stf.Nlink != 2 {
		t.Fatalf("f=%+v g=%+v", stf, stg)
	}
	fs.Remove("/f")
	got, err := fs.ReadFile("/g")
	if err != nil || string(got) != "shared" {
		t.Fatalf("data lost after unlinking one name: %v %q", err, got)
	}
	st, _ := fs.Stat("/g")
	if st.Nlink != 1 {
		t.Fatalf("Nlink = %d", st.Nlink)
	}
}

func TestHardLinkToDirFails(t *testing.T) {
	fs := newFS()
	fs.Mkdir("/d", 0o755, "")
	if err := fs.Link("/d", "/e"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadWriteAt(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", []byte("0123456789"), 0o644, "")
	buf := make([]byte, 4)
	n, err := fs.ReadAt("/f", buf, 3)
	if err != nil || n != 4 || string(buf) != "3456" {
		t.Fatalf("ReadAt = %d %q %v", n, buf, err)
	}
	// Read at EOF returns 0.
	if n, err := fs.ReadAt("/f", buf, 10); err != nil || n != 0 {
		t.Fatalf("ReadAt EOF = %d %v", n, err)
	}
	// Overwrite in the middle.
	if _, err := fs.WriteAt("/f", []byte("XY"), 4); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/f")
	if string(got) != "0123XY6789" {
		t.Fatalf("after WriteAt: %q", got)
	}
	// Extend past EOF zero-fills.
	if _, err := fs.WriteAt("/f", []byte("Z"), 12); err != nil {
		t.Fatal(err)
	}
	got, _ = fs.ReadFile("/f")
	if string(got) != "0123XY6789\x00\x00Z" {
		t.Fatalf("after extend: %q", got)
	}
}

func TestTruncate(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", []byte("0123456789"), 0o644, "")
	if err := fs.Truncate("/f", 4); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/f")
	if string(got) != "0123" {
		t.Fatalf("after shrink: %q", got)
	}
	if err := fs.Truncate("/f", 6); err != nil {
		t.Fatal(err)
	}
	got, _ = fs.ReadFile("/f")
	if string(got) != "0123\x00\x00" {
		t.Fatalf("after grow: %q", got)
	}
	if got := fs.UsedBytes(); got != 6 {
		t.Fatalf("UsedBytes = %d", got)
	}
	if err := fs.Truncate("/f", -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative truncate: %v", err)
	}
}

func TestUsedBytesAccounting(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/a", make([]byte, 100), 0o644, "")
	fs.WriteFile("/b", make([]byte, 50), 0o644, "")
	if got := fs.UsedBytes(); got != 150 {
		t.Fatalf("UsedBytes = %d, want 150", got)
	}
	fs.WriteFile("/a", make([]byte, 10), 0o644, "")
	if got := fs.UsedBytes(); got != 60 {
		t.Fatalf("UsedBytes = %d, want 60", got)
	}
}

func TestChmod(t *testing.T) {
	fs := newFS()
	fs.WriteFile("/f", nil, 0o644, "satya")
	fs.Chmod("/f", 0o600)
	st, _ := fs.Stat("/f")
	if st.Mode != 0o600 || st.Owner != "satya" {
		t.Fatalf("stat = %+v", st)
	}
}

func TestWalkAndTreeSize(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/a/b", 0o755, "")
	fs.WriteFile("/a/f1", make([]byte, 10), 0o644, "")
	fs.WriteFile("/a/b/f2", make([]byte, 20), 0o644, "")
	var paths []string
	err := fs.Walk("/a", func(p string, _ Stat) error {
		paths = append(paths, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a", "/a/b", "/a/b/f2", "/a/f1"}
	if fmt.Sprint(paths) != fmt.Sprint(want) {
		t.Fatalf("paths = %v, want %v", paths, want)
	}
	size, err := fs.TreeSize("/a")
	if err != nil || size != 30 {
		t.Fatalf("TreeSize = %d, %v", size, err)
	}
}

func TestCopyTree(t *testing.T) {
	src := newFS()
	src.MkdirAll("/tree/sub", 0o755, "u")
	src.WriteFile("/tree/f", []byte("data"), 0o640, "u")
	src.WriteFile("/tree/sub/g", []byte("more"), 0o644, "u")
	src.Symlink("/tree/f", "/tree/link")

	dst := newFS()
	if err := CopyTree(src, "/tree", dst, "/copy"); err != nil {
		t.Fatal(err)
	}
	got, err := dst.ReadFile("/copy/sub/g")
	if err != nil || string(got) != "more" {
		t.Fatalf("copy content: %v %q", err, got)
	}
	st, _ := dst.Stat("/copy/f")
	if st.Mode != 0o640 || st.Owner != "u" {
		t.Fatalf("copied stat = %+v", st)
	}
	if target, _ := dst.Readlink("/copy/link"); target != "/tree/f" {
		t.Fatalf("copied symlink = %q", target)
	}
}

func TestVersionMonotonicUnderMutation(t *testing.T) {
	fs := newFS()
	fs.Mkdir("/d", 0o755, "")
	var last uint64
	for i := 0; i < 5; i++ {
		fs.WriteFile(fmt.Sprintf("/d/f%d", i), nil, 0o644, "")
		st, _ := fs.Stat("/d")
		if st.Version <= last {
			t.Fatalf("directory version not monotone: %d then %d", last, st.Version)
		}
		last = st.Version
	}
}

// Property: WriteFile then ReadFile round-trips arbitrary contents at
// arbitrary (cleaned) names.
func TestQuickWriteReadRoundTrip(t *testing.T) {
	fs := newFS()
	f := func(name string, data []byte) bool {
		if name == "" || strings.ContainsAny(name, "/\x00") {
			return true // skip names that are not single components
		}
		path := "/" + name
		if name == "." || name == ".." {
			return true
		}
		if err := fs.WriteFile(path, data, 0o644, ""); err != nil {
			return false
		}
		got, err := fs.ReadFile(path)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: UsedBytes always equals the sum of file sizes reachable from
// the root, under a random sequence of writes and removes.
func TestQuickUsedBytesConsistent(t *testing.T) {
	fs := newFS()
	f := func(ops []struct {
		N    uint8
		Size uint16
		Del  bool
	}) bool {
		for _, op := range ops {
			path := fmt.Sprintf("/f%d", op.N%16)
			if op.Del {
				fs.Remove(path)
			} else {
				fs.WriteFile(path, make([]byte, op.Size), 0o644, "")
			}
		}
		sum, err := fs.TreeSize("/")
		return err == nil && sum == fs.UsedBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
