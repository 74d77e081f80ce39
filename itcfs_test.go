package itcfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// provision builds a cell with one user volume and a logged-in workstation.
func provision(t *testing.T, mode Mode, clusters int) (*Cell, *Workstation) {
	t.Helper()
	cell := NewCell(CellConfig{Mode: mode, Clusters: clusters})
	cell.Run(func(p *sim.Proc) {
		admin, err := cell.Admin(p, 0)
		if err != nil {
			t.Errorf("admin: %v", err)
			return
		}
		if err := admin.NewUser(p, "satya", "pw", 0); err != nil {
			t.Errorf("new user: %v", err)
		}
	})
	ws := cell.AddWorkstation(0, "ws-test")
	cell.Run(func(p *sim.Proc) {
		if err := ws.Login(p, "satya", "pw"); err != nil {
			t.Errorf("login: %v", err)
		}
	})
	return cell, ws
}

func TestEndToEndWriteRead(t *testing.T) {
	for _, mode := range []Mode{Prototype, Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			cell, ws := provision(t, mode, 1)
			var got []byte
			cell.Run(func(p *sim.Proc) {
				if err := ws.FS.WriteFile(p, "/vice/usr/satya/hello", []byte("end to end")); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				var err error
				got, err = ws.FS.ReadFile(p, "/vice/usr/satya/hello")
				if err != nil {
					t.Errorf("read: %v", err)
				}
			})
			if string(got) != "end to end" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestVirtualTimeAdvancesWithWork(t *testing.T) {
	cell, ws := provision(t, Prototype, 1)
	start := cell.Now()
	cell.Run(func(p *sim.Proc) {
		big := make([]byte, 1<<20)
		if err := ws.FS.WriteFile(p, "/vice/usr/satya/big", big); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	elapsed := time.Duration(cell.Now() - start)
	// 1MB over a 10 Mbit LAN plus server disk time: comfortably >1s.
	if elapsed < time.Second {
		t.Fatalf("virtual time advanced only %v for a 1MB store", elapsed)
	}
}

func TestServerResourcesAccumulate(t *testing.T) {
	cell, ws := provision(t, Prototype, 1)
	cpuBefore := cell.Servers[0].CPU.BusyTime()
	cell.Run(func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			path := fmt.Sprintf("/vice/usr/satya/f%d", i)
			if err := ws.FS.WriteFile(p, path, []byte("data")); err != nil {
				t.Errorf("write: %v", err)
			}
		}
	})
	if cell.Servers[0].CPU.BusyTime() <= cpuBefore {
		t.Fatal("server CPU did not accumulate busy time")
	}
	if cell.Servers[0].Disk.BusyTime() == 0 {
		t.Fatal("server disk never used")
	}
}

func TestSymbolicLinkIntoVice(t *testing.T) {
	cell, ws := provision(t, Prototype, 1)
	cell.Run(func(p *sim.Proc) {
		admin, _ := cell.Admin(p, 0)
		if err := admin.MkdirAll(p, "/unix/sun/bin"); err != nil {
			t.Errorf("mkdirall: %v", err)
			return
		}
		// Operator installs a shared binary.
		opWS := cell.AddWorkstation(0, "op-ws")
		if err := opWS.Login(p, "operator", "operator-password"); err != nil {
			t.Errorf("op login: %v", err)
			return
		}
		if err := opWS.FS.WriteFile(p, "/vice/unix/sun/bin/cc", []byte("ELF cc")); err != nil {
			t.Errorf("install cc: %v", err)
			return
		}
		// The workstation's /bin is a symlink into /vice (Figure 3-2).
		if err := ws.FS.Symlink(p, "/vice/unix/sun/bin", "/bin"); err != nil {
			t.Errorf("links: %v", err)
			return
		}
		got, err := ws.FS.ReadFile(p, "/bin/cc")
		if err != nil || string(got) != "ELF cc" {
			t.Errorf("/bin/cc through symlink: %q %v", got, err)
		}
	})
}

func TestCrossClusterAccessCrossesBackbone(t *testing.T) {
	cell := NewCell(CellConfig{Mode: Prototype, Clusters: 2})
	cell.Run(func(p *sim.Proc) {
		admin, err := cell.Admin(p, 0)
		if err != nil {
			t.Errorf("admin: %v", err)
			return
		}
		if err := admin.NewUser(p, "satya", "pw", 0); err != nil {
			t.Errorf("new user: %v", err)
		}
	})
	// Workstation in cluster 1; satya's volume custodian is server0 in
	// cluster 0.
	ws := cell.AddWorkstation(1, "remote-ws")
	frames := cell.Net.CrossClusterFrames()
	cell.Run(func(p *sim.Proc) {
		if err := ws.Login(p, "satya", "pw"); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		if err := ws.FS.WriteFile(p, "/vice/usr/satya/f", []byte("x")); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	if cell.Net.CrossClusterFrames() <= frames {
		t.Fatal("cross-cluster file access produced no backbone traffic")
	}
}

func TestUserMobilityScenario(t *testing.T) {
	// The paper's mobility story: a user works in the office (cluster 0),
	// then uses a public workstation in a library (cluster 1), with only a
	// cache warm-up as the observable difference.
	for _, mode := range []Mode{Prototype, Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			cell, office := provision(t, mode, 2)
			library := cell.AddWorkstation(1, "library-ws")
			cell.Run(func(p *sim.Proc) {
				if err := office.FS.WriteFile(p, "/vice/usr/satya/paper.mss", []byte("draft-1")); err != nil {
					t.Errorf("office write: %v", err)
					return
				}
				if err := library.Login(p, "satya", "pw"); err != nil {
					t.Errorf("library login: %v", err)
					return
				}
				got, err := library.FS.ReadFile(p, "/vice/usr/satya/paper.mss")
				if err != nil || string(got) != "draft-1" {
					t.Errorf("library read: %q %v", got, err)
					return
				}
				if err := library.FS.WriteFile(p, "/vice/usr/satya/paper.mss", []byte("draft-2")); err != nil {
					t.Errorf("library write: %v", err)
					return
				}
				got, err = office.FS.ReadFile(p, "/vice/usr/satya/paper.mss")
				if err != nil || string(got) != "draft-2" {
					t.Errorf("office re-read: %q %v", got, err)
				}
			})
		})
	}
}

// TestWorkstationsShareCachedBytes has two workstations fetch one Vice file
// into their caches: the cell's content table keeps its bytes once, while
// each cache counts them in full. Then one workstation writes its cached
// copy in place through an open handle, and the other, reading its own
// copy before the store, still gets the original bytes.
func TestWorkstationsShareCachedBytes(t *testing.T) {
	for _, mode := range []Mode{Prototype, Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			cell, writer := provision(t, mode, 1)
			a, b := cell.AddWorkstation(0, "ws-a"), cell.AddWorkstation(0, "ws-b")
			const path = "/vice/usr/satya/shared"
			orig := []byte(fmt.Sprintf("%4096s", "bytes every workstation caches"))
			patch := []byte("PATCHED")
			read := func(p *sim.Proc, ws *Workstation) []byte {
				got, err := ws.FS.ReadFile(p, path)
				if err != nil {
					t.Errorf("%s read: %v", ws.Name, err)
				}
				return got
			}
			cell.Run(func(p *sim.Proc) {
				if err := writer.FS.WriteFile(p, path, orig); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				for _, ws := range []*Workstation{a, b} {
					if err := ws.Login(p, "satya", "pw"); err != nil {
						t.Errorf("%s login: %v", ws.Name, err)
						return
					}
				}
				read(p, a)
				entries, held, used := cell.Contents.Len(), cell.Contents.Bytes(), b.Local.UsedBytes()
				if held < int64(len(orig)) {
					t.Errorf("the table holds %d B after a's fetch of a %d B file", held, len(orig))
				}
				if got := read(p, b); !bytes.Equal(got, orig) {
					t.Errorf("b reads %q", got)
					return
				}
				if cell.Contents.Len() != entries || cell.Contents.Bytes() != held {
					t.Errorf("b's fetch of what a holds grew the table from %d entries, %d B to %d, %d B",
						entries, held, cell.Contents.Len(), cell.Contents.Bytes())
				}
				if grew := b.Local.UsedBytes() - used; grew < int64(len(orig)) {
					t.Errorf("b's cache grew %d B for a %d B file; each cache counts its files in full", grew, len(orig))
				}

				h, err := a.FS.Open(p, path, FlagRead|FlagWrite)
				if err != nil {
					t.Errorf("open for write: %v", err)
					return
				}
				if _, err := h.WriteAt(patch, 0); err != nil {
					t.Errorf("write in place: %v", err)
				}
				buf := make([]byte, len(patch))
				if _, err := h.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, patch) {
					t.Errorf("a's handle reads %q, %v after writing %q", buf, err, patch)
				}
				if got := read(p, b); !bytes.Equal(got, orig) {
					t.Errorf("a's write in place reached b's cached copy: b reads %q...", got[:len(patch)])
				}
				if cell.Contents.Len() != entries {
					t.Errorf("a's write left %d table entries; want %d, b still holding the original", cell.Contents.Len(), entries)
				}
				if err := h.Close(p); err != nil {
					t.Errorf("close: %v", err)
				}
				want := append(append([]byte(nil), patch...), orig[len(patch):]...)
				if got := read(p, b); !bytes.Equal(got, want) {
					t.Errorf("after a's store, b reads %q...; want %q...", got[:len(patch)], want[:len(patch)])
				}
			})
		})
	}
}

func TestQuotaSurfacesToApplication(t *testing.T) {
	cell := NewCell(CellConfig{Mode: Prototype, Clusters: 1})
	cell.Run(func(p *sim.Proc) {
		admin, _ := cell.Admin(p, 0)
		if err := admin.NewUser(p, "satya", "pw", 1000); err != nil {
			t.Errorf("new user: %v", err)
		}
	})
	ws := cell.AddWorkstation(0, "ws")
	var err error
	cell.Run(func(p *sim.Proc) {
		if lerr := ws.Login(p, "satya", "pw"); lerr != nil {
			t.Errorf("login: %v", lerr)
			return
		}
		err = ws.FS.WriteFile(p, "/vice/usr/satya/big", make([]byte, 2000))
	})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("err = %v, want ErrQuota", err)
	}
}

func TestCallMixHistogramAvailable(t *testing.T) {
	cell, ws := provision(t, Prototype, 1)
	cell.Run(func(p *sim.Proc) {
		ws.FS.WriteFile(p, "/vice/usr/satya/a", []byte("1"))
		ws.FS.ReadFile(p, "/vice/usr/satya/a")
		ws.FS.ReadFile(p, "/vice/usr/satya/a")
		ws.FS.Stat(p, "/vice/usr/satya/a")
	})
	counts := cell.Servers[0].Endpoint.CallCounts()
	if counts[rpc.Op(proto.OpTestValid)] == 0 {
		t.Fatalf("no validations in histogram: %v", counts)
	}
}

// TestStartSamplingKeepsEveryWindowToTheHorizon: a run of 600 windows keeps
// the first, and a server's CPU windows add up to all the busy time it
// accrued — the property E2's peak relies on.
func TestStartSamplingKeepsEveryWindowToTheHorizon(t *testing.T) {
	cell, ws := provision(t, Revised, 1)
	const every, windows = time.Second, 600
	srv := cell.Servers[0]
	start, busy0 := cell.Now(), srv.CPU.BusyTime()
	s := cell.StartSampling(every, windows*every)
	cell.Kernel.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Duration(windows/4) * every)
			if err := ws.FS.WriteFile(p, "/vice/usr/satya/s", []byte("sampled")); err != nil {
				t.Errorf("write: %v", err)
			}
		}
	})
	cell.Kernel.RunUntil(cell.Now().Add(windows * every))

	pts := s.Points(trace.ServerCPUSeries(srv.Vice.Name()))
	if len(pts) != windows {
		t.Fatalf("CPU series holds %d windows, want %d", len(pts), windows)
	}
	var sum time.Duration
	for _, pt := range pts {
		sum += time.Duration(pt.V)
	}
	if first := start.Add(every); pts[0].At != first {
		t.Errorf("oldest window ends at %v, want %v", pts[0].At, first)
	}
	if accrued := srv.CPU.BusyTime() - busy0; sum != accrued || sum == 0 {
		t.Errorf("CPU windows add up to %v, the server accrued %v", sum, accrued)
	}
}
