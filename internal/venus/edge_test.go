package venus

import (
	"errors"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/vice"
)

func TestSymlinkAcrossVolumes(t *testing.T) {
	// A symlink in one volume pointing into another: resolution restarts
	// through the location machinery, exactly like the server-side walk.
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("u.satya", "/usr/satya", "satya", 0)
			c.mkVolume("proj", "/proj", "satya", 0)
			v := c.newVenus("s0", "satya", nil)
			writeFile(t, v, "/proj/plan.txt", "the real plan")
			if err := v.Symlink(nil, "/proj/plan.txt", "/usr/satya/plan"); err != nil {
				t.Fatal(err)
			}
			if got := readFile(t, v, "/usr/satya/plan"); got != "the real plan" {
				t.Fatalf("cross-volume symlink read %q", got)
			}
		})
	}
}

func TestRenameAcrossVolumesRefused(t *testing.T) {
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("a", "/a", "satya", 0)
	c.mkVolume("b", "/b", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	writeFile(t, v, "/a/f", "x")
	if err := v.Rename(nil, "/a/f", "/b/f"); !errors.Is(err, proto.ErrBadRequest) {
		t.Fatalf("cross-volume rename: %v, want ErrBadRequest", err)
	}
}

func TestHardLinkAcrossVolumesRefused(t *testing.T) {
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("a", "/a", "satya", 0)
	c.mkVolume("b", "/b", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	writeFile(t, v, "/a/f", "x")
	if err := v.Link(nil, "/a/f", "/b/g"); !errors.Is(err, proto.ErrBadRequest) {
		t.Fatalf("cross-volume link: %v, want ErrBadRequest", err)
	}
}

func TestHardLinkWithinVolume(t *testing.T) {
	c := newTestCell(t, vice.Revised, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	writeFile(t, v, "/u/orig", "linked data")
	if err := v.Link(nil, "/u/orig", "/u/alias"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, v, "/u/alias"); got != "linked data" {
		t.Fatalf("hard link read %q", got)
	}
	// Removing the original keeps the alias alive.
	if err := v.Remove(nil, "/u/orig"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, v, "/u/alias"); got != "linked data" {
		t.Fatalf("after unlink: %q", got)
	}
}

func TestTwoHandlesSameFile(t *testing.T) {
	// Two handles on one workstation share the cached copy; writes through
	// one are visible to the other immediately (same machine), and the
	// store happens when the dirty handle closes.
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	writeFile(t, v, "/u/f", "0123456789")

	reader, err := v.Open(nil, "/u/f", FlagRead)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := v.Open(nil, "/u/f", FlagRead|FlagWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.WriteAt([]byte("XY"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	n, _ := reader.ReadAt(buf, 0)
	if string(buf[:n]) != "XY23" {
		t.Fatalf("reader sees %q", buf[:n])
	}
	if err := writer.Close(nil); err != nil {
		t.Fatal(err)
	}
	if err := reader.Close(nil); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, v, "/u/f"); got != "XY23456789" {
		t.Fatalf("stored %q", got)
	}
}

func TestOpenPinnedEntrySurvivesChurn(t *testing.T) {
	// An open handle pins its cache entry against eviction even in a tiny
	// cache.
	c := newTestCell(t, vice.Prototype, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", func(cfg *Config) { cfg.MaxFiles = 2 })
	writeFile(t, v, "/u/pinned", "pinned data")
	h, err := v.Open(nil, "/u/pinned", FlagRead)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		writeFile(t, v, "/u/churn"+string(rune('a'+i)), "x")
	}
	buf := make([]byte, 32)
	n, err := h.ReadAt(buf, 0)
	if err != nil || string(buf[:n]) != "pinned data" {
		t.Fatalf("pinned read: %q %v", buf[:n], err)
	}
	h.Close(nil)
}

func TestReadDirOfPlainFileFails(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("u", "/u", "satya", 0)
			v := c.newVenus("s0", "satya", nil)
			writeFile(t, v, "/u/f", "not a dir")
			if _, err := v.ReadDir(nil, "/u/f"); err == nil {
				t.Fatal("ReadDir of a plain file succeeded")
			}
		})
	}
}

func TestRemoveNonEmptyDirRefused(t *testing.T) {
	c := newTestCell(t, vice.Revised, "s0")
	c.mkVolume("u", "/u", "satya", 0)
	v := c.newVenus("s0", "satya", nil)
	if err := v.Mkdir(nil, "/u/d", 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, v, "/u/d/f", "x")
	if err := v.RemoveDir(nil, "/u/d"); !errors.Is(err, proto.ErrNotEmpty) {
		t.Fatalf("err = %v, want ErrNotEmpty", err)
	}
}

func TestDeepPathsBothModes(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCell(t, mode, "s0")
			c.mkVolume("u", "/u", "satya", 0)
			v := c.newVenus("s0", "satya", nil)
			path := "/u"
			for i := 0; i < 8; i++ {
				path += "/d"
				if err := v.Mkdir(nil, path, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			writeFile(t, v, path+"/leaf", "deep")
			if got := readFile(t, v, path+"/leaf"); got != "deep" {
				t.Fatalf("deep read %q", got)
			}
		})
	}
}

// Mkdir of the shared space's root is mkdir of a directory that exists —
// what a mkdir -p walk from "/vice" starts with. Venus says so itself: "/"
// is not a name Vice would take, and at one time it was sent as one and
// entered into the root directory.
func TestMkdirOfRootExists(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		v := newTestCell(t, mode, "s0").newVenus("s0", "operator", nil)
		if err := v.Mkdir(nil, "/", 0o755); !errors.Is(err, proto.ErrExist) {
			t.Fatalf("Mkdir(/) = %v, want ErrExist", err)
		}
		ents, err := v.ReadDir(nil, "/")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Name == "/" {
				t.Fatalf("root directory gained an entry named \"/\": %+v", ents)
			}
		}
	}
}
