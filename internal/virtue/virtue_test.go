package virtue

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
	"itcfs/internal/vice"
)

// rig builds a single-server cell and a workstation FS wired directly to it
// (no network, like the venus unit tests).
func rig(t *testing.T, mode vice.Mode) (*FS, *vice.Server) {
	t.Helper()
	var clock int64
	clk := func() int64 { clock++; return clock }
	db := prot.NewDB()
	if err := db.Apply(prot.Mutation{Kind: prot.MutAddUser, Name: "satya", Key: secure.DeriveKey("satya", "pw")}); err != nil {
		t.Fatal(err)
	}
	srv, _, err := vice.Boot(vice.Config{Name: "s0", Mode: mode, DB: db, Clock: clk}, "pw")
	if err != nil {
		t.Fatal(err)
	}
	root, _ := srv.Volume(1)
	acl, _ := root.GetACL(root.Root())
	acl.Grant("satya", prot.RightsAll)
	if err := root.SetACL(root.Root(), acl); err != nil {
		t.Fatal(err)
	}

	local := unixfs.New(clk)
	var v *venus.Venus
	v = venus.New(venus.Config{
		Mode: mode, Machine: "ws", Local: local, HomeServer: "s0",
		Connect: func(_ *sim.Proc, server string) (venus.Conn, error) {
			return directConn{srv: srv, user: v.User}, nil
		},
	})
	v.Login("satya")
	return New(local, v), srv
}

// directConn is the workstation's connection to the server, without a
// network. It dispatches each call straight into the server and, as the
// simulated carrier does, hands the request to the server and the reply to
// Venus in copies of their own, marked Owned, which each keeps as it is
// handed.
type directConn struct {
	srv  *vice.Server
	user func() string
}

func (c directConn) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	req.Body, req.Bulk, req.Owned = bytes.Clone(req.Body), bytes.Clone(req.Bulk), true
	resp := c.srv.Dispatcher().Dispatch(rpc.Ctx{User: c.user(), Proc: p}, req)
	resp.Body, resp.Bulk, resp.Owned = bytes.Clone(resp.Body), bytes.Clone(resp.Bulk), true
	return resp, nil
}

func TestLocalAndSharedSplit(t *testing.T) {
	fs, srv := rig(t, vice.Prototype)
	// A local file generates no Vice traffic.
	if err := fs.Local().MkdirAll("/tmp", 0o777, "root"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(nil, "/tmp/t", []byte("temp")); err != nil {
		t.Fatal(err)
	}
	if got := srv.Dispatcher(); got == nil {
		t.Fatal("nil dispatcher")
	}
	f, s, _ := srv.TrafficStats()
	if f != 0 || s != 0 {
		t.Fatalf("local write touched Vice: fetch=%d store=%d", f, s)
	}
	// A shared file round-trips through Vice.
	if err := fs.WriteFile(nil, "/vice/doc", []byte("shared")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(nil, "/vice/doc")
	if err != nil || string(got) != "shared" {
		t.Fatalf("shared read: %q %v", got, err)
	}
	_, s, _ = srv.TrafficStats()
	if s == 0 {
		t.Fatal("shared write did not reach Vice")
	}
}

func TestStatDistinguishesSpaces(t *testing.T) {
	fs, _ := rig(t, vice.Prototype)
	fs.Local().MkdirAll("/tmp", 0o777, "root")
	fs.WriteFile(nil, "/tmp/l", []byte("ll"))
	fs.WriteFile(nil, "/vice/s", []byte("sss"))
	lst, err := fs.Stat(nil, "/tmp/l")
	if err != nil || lst.Shared || lst.Size != 2 {
		t.Fatalf("local stat: %+v %v", lst, err)
	}
	sst, err := fs.Stat(nil, "/vice/s")
	if err != nil || !sst.Shared || sst.Size != 3 {
		t.Fatalf("shared stat: %+v %v", sst, err)
	}
}

func TestSymlinkFromLocalIntoVice(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			fs, _ := rig(t, mode)
			if err := fs.Mkdir(nil, "/vice/unix", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := fs.Mkdir(nil, "/vice/unix/sun", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := fs.Mkdir(nil, "/vice/unix/sun/bin", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(nil, "/vice/unix/sun/bin/cc", []byte("compiler")); err != nil {
				t.Fatal(err)
			}
			if err := fs.Symlink(nil, "/vice/unix/sun/bin", "/bin"); err != nil {
				t.Fatal(err)
			}
			got, err := fs.ReadFile(nil, "/bin/cc")
			if err != nil || string(got) != "compiler" {
				t.Fatalf("/bin/cc: %q %v", got, err)
			}
			// Listing /bin lists the shared directory.
			entries, err := fs.ReadDir(nil, "/bin")
			if err != nil || len(entries) != 1 || entries[0].Name != "cc" {
				t.Fatalf("ReadDir(/bin): %+v %v", entries, err)
			}
		})
	}
}

func TestSymlinkWithinVice(t *testing.T) {
	fs, _ := rig(t, vice.Prototype)
	fs.WriteFile(nil, "/vice/real", []byte("data"))
	if err := fs.Symlink(nil, "/vice/real", "/vice/alias"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(nil, "/vice/alias")
	if err != nil || string(got) != "data" {
		t.Fatalf("alias: %q %v", got, err)
	}
}

func TestRenameWithinSpaces(t *testing.T) {
	fs, _ := rig(t, vice.Prototype)
	fs.Local().MkdirAll("/tmp", 0o777, "root")
	fs.WriteFile(nil, "/tmp/a", []byte("1"))
	if err := fs.Rename(nil, "/tmp/a", "/tmp/b"); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile(nil, "/tmp/b"); string(got) != "1" {
		t.Fatalf("local rename: %q", got)
	}
	fs.WriteFile(nil, "/vice/x", []byte("2"))
	if err := fs.Rename(nil, "/vice/x", "/vice/y"); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile(nil, "/vice/y"); string(got) != "2" {
		t.Fatalf("shared rename: %q", got)
	}
	// Cross-space rename is refused.
	if err := fs.Rename(nil, "/tmp/b", "/vice/b"); err == nil {
		t.Fatal("cross-space rename succeeded")
	}
}

func TestMkdirRemoveDirBothSpaces(t *testing.T) {
	fs, _ := rig(t, vice.Revised)
	if err := fs.Mkdir(nil, "/localdir", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(nil, "/vice/shareddir", 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat(nil, "/vice/shareddir")
	if err != nil || !st.IsDir || !st.Shared {
		t.Fatalf("shared dir stat: %+v %v", st, err)
	}
	if err := fs.RemoveDir(nil, "/vice/shareddir"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveDir(nil, "/localdir"); err != nil {
		t.Fatal(err)
	}
}

func TestMissingFileErrors(t *testing.T) {
	fs, _ := rig(t, vice.Prototype)
	if _, err := fs.Open(nil, "/vice/ghost", FlagRead); !errors.Is(err, proto.ErrNoEnt) {
		t.Fatalf("shared: %v", err)
	}
	if _, err := fs.Open(nil, "/ghost", FlagRead); !errors.Is(err, unixfs.ErrNotExist) {
		t.Fatalf("local: %v", err)
	}
}

// TestSequentialIOAndSeek: an open file has one offset, in either name space
// and either mode. Read and Write advance it; Seek sets it from the start, the
// offset (counting the reads before it) or the end; a seek before the start
// fails and leaves it alone; and a closed handle refuses every read, write and
// seek with one error.
func TestSequentialIOAndSeek(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		for _, path := range []string{"/vice/f", "/tmp/f"} {
			t.Run(mode.String()+path, func(t *testing.T) {
				fs, _ := rig(t, mode)
				if err := fs.Local().MkdirAll("/tmp", 0o777, "root"); err != nil {
					t.Fatal(err)
				}
				if err := fs.WriteFile(nil, path, []byte("abcdefgh")); err != nil {
					t.Fatal(err)
				}
				f, err := fs.Open(nil, path, FlagRead|FlagWrite)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, 3)
				read := func(want string) {
					t.Helper()
					if n, err := f.Read(buf); err != nil || string(buf[:n]) != want {
						t.Fatalf("read %q, %v; want %q", buf[:n], err, want)
					}
				}
				seek := func(off int64, whence int, want int64) {
					t.Helper()
					if pos, err := f.Seek(off, whence); err != nil || pos != want {
						t.Fatalf("Seek(%d, %d) = %d, %v; want %d", off, whence, pos, err, want)
					}
				}
				read("abc")
				seek(1, 1, 4)
				read("efg")
				seek(2, 0, 2)
				read("cde")
				seek(0, 2, 8)
				if n, err := f.Write([]byte("ij")); err != nil || n != 2 {
					t.Fatalf("write: %d, %v", n, err)
				}
				seek(0, 1, 10)
				seek(-1, 2, 9)
				read("j")
				if _, err := f.Seek(-11, 1); !errors.Is(err, proto.ErrBadRequest) {
					t.Fatalf("seek before the start: %v", err)
				}
				seek(0, 1, 10)

				st := f.Status()
				if shared := path == "/vice/f"; shared && st.Size != 8 {
					t.Fatalf("status of the shared file as opened: size %d", st.Size)
				} else if !shared && st != (proto.Status{}) {
					t.Fatalf("status of a local file: %+v, want the zero Status", st)
				}
				if err := f.Close(nil); err != nil {
					t.Fatal(err)
				}
				if got, err := fs.ReadFile(nil, path); err != nil || string(got) != "abcdefghij" {
					t.Fatalf("after close: %q, %v", got, err)
				}
				for name, op := range map[string]func() error{
					"Read":    func() error { _, err := f.Read(buf); return err },
					"ReadAt":  func() error { _, err := f.ReadAt(buf, 0); return err },
					"Write":   func() error { _, err := f.Write(buf); return err },
					"WriteAt": func() error { _, err := f.WriteAt(buf, 0); return err },
					"Seek":    func() error { _, err := f.Seek(0, 0); return err },
				} {
					if err := op(); !errors.Is(err, proto.ErrBadRequest) {
						t.Errorf("%s on a closed handle: %v", name, err)
					}
				}
			})
		}
	}
}

func TestChmodOnSharedFile(t *testing.T) {
	fs, _ := rig(t, vice.Revised)
	fs.WriteFile(nil, "/vice/f", []byte("x"))
	if err := fs.Chmod(nil, "/vice/f", 0o444); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.Stat(nil, "/vice/f")
	if st.Mode != 0o444 {
		t.Fatalf("mode = %04o", st.Mode)
	}
	// Per-file bits now forbid overwriting (revised mode).
	if err := fs.WriteFile(nil, "/vice/f", []byte("y")); !errors.Is(err, proto.ErrAccess) {
		t.Fatalf("write to 0444 file: %v", err)
	}
}

func TestManyFilesRoundTrip(t *testing.T) {
	fs, _ := rig(t, vice.Revised)
	if err := fs.Mkdir(nil, "/vice/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		path := fmt.Sprintf("/vice/dir/f%02d", i)
		if err := fs.WriteFile(nil, path, []byte(fmt.Sprintf("content-%d", i))); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
	}
	entries, err := fs.ReadDir(nil, "/vice/dir")
	if err != nil || len(entries) != 30 {
		t.Fatalf("dir has %d entries, %v", len(entries), err)
	}
	for i := 0; i < 30; i++ {
		path := fmt.Sprintf("/vice/dir/f%02d", i)
		got, err := fs.ReadFile(nil, path)
		if err != nil || string(got) != fmt.Sprintf("content-%d", i) {
			t.Fatalf("read %s: %q %v", path, got, err)
		}
	}
}
