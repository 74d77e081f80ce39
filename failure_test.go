package itcfs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
)

// Availability (§2.2): "single point network or machine failures should
// not affect the entire user community. We are willing, however, to accept
// temporary loss of service to small groups of users."

func TestPartitionIsolatesOneClusterOnly(t *testing.T) {
	cell := NewCell(CellConfig{Mode: Prototype, Clusters: 2})
	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		// alice's volume on server0 (cluster 0), bob's on server1.
		if _, err = admin.NewUserAt(p, "alice", "pw", 0, "server0"); err != nil {
			return
		}
		_, err = admin.NewUserAt(p, "bob", "pw", 0, "server1")
	})
	if err != nil {
		t.Fatal(err)
	}
	alice := cell.AddWorkstation(0, "alice-ws")
	bob := cell.AddWorkstation(1, "bob-ws")
	cell.Run(func(p *sim.Proc) {
		if err = alice.Login(p, "alice", "pw"); err != nil {
			return
		}
		if err = bob.Login(p, "bob", "pw"); err != nil {
			return
		}
		if err = alice.FS.WriteFile(p, "/vice/usr/alice/f", []byte("a")); err != nil {
			return
		}
		err = bob.FS.WriteFile(p, "/vice/usr/bob/f", []byte("b"))
	})
	if err != nil {
		t.Fatal(err)
	}

	// Cluster 1 falls off the backbone.
	cell.Net.Partition(cell.Clusters[1])
	var aliceErr, bobLocalErr, bobRemoteErr error
	cell.Run(func(p *sim.Proc) {
		// alice (cluster 0, custodian in cluster 0): unaffected.
		_, aliceErr = alice.FS.ReadFile(p, "/vice/usr/alice/f")
		// bob reaching his own cluster server: unaffected.
		_, bobLocalErr = bob.FS.ReadFile(p, "/vice/usr/bob/f")
		// bob reaching alice's custodian across the backbone: lost.
		_, bobRemoteErr = bob.FS.ReadFile(p, "/vice/usr/alice/f")
	})
	if aliceErr != nil {
		t.Errorf("cluster-0 user affected by cluster-1 partition: %v", aliceErr)
	}
	if bobLocalErr != nil {
		t.Errorf("intra-cluster service lost during partition: %v", bobLocalErr)
	}
	if !errors.Is(bobRemoteErr, rpc.ErrUnreachable) {
		t.Errorf("cross-partition access: %v, want ErrUnreachable", bobRemoteErr)
	}

	// Healing restores service.
	cell.Net.Heal(cell.Clusters[1])
	cell.Run(func(p *sim.Proc) {
		_, err = bob.FS.ReadFile(p, "/vice/usr/alice/f")
	})
	if err != nil {
		t.Errorf("service not restored after heal: %v", err)
	}
}

func TestCrashSalvageAndContinue(t *testing.T) {
	cell, ws := provision(t, Prototype, 1)
	var err error
	cell.Run(func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err = ws.FS.WriteFile(p, fmt.Sprintf("/vice/usr/satya/f%d", i), []byte("data")); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The server crashes, leaving volume damage; the operator salvages.
	for _, id := range cell.Servers[0].Vice.VolumeIDs() {
		if v, ok := cell.Servers[0].Vice.Volume(id); ok && !v.ReadOnly() {
			v.CorruptForTest()
		}
	}
	reports := cell.Servers[0].Vice.SalvageAll()
	repaired := 0
	for _, rep := range reports {
		repaired += rep.OrphansRemoved + rep.DanglingEntries + rep.LinksFixed
	}
	if repaired == 0 {
		t.Fatal("salvage found nothing to repair after corruption")
	}
	// Clients continue unharmed.
	cell.Run(func(p *sim.Proc) {
		var data []byte
		data, err = ws.FS.ReadFile(p, "/vice/usr/satya/f0")
		if err == nil && string(data) != "data" {
			err = fmt.Errorf("data corrupted: %q", data)
		}
		if err != nil {
			return
		}
		err = ws.FS.WriteFile(p, "/vice/usr/satya/post-salvage", []byte("alive"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Action consistency (§3.6): with two workstations updating the same file,
// the custodian holds one version or the other in its entirety — whichever
// close arrived last — never a mixture.
func TestConcurrentWritersLastCloseWins(t *testing.T) {
	cell, ws1 := provision(t, Prototype, 1)
	ws2 := cell.AddWorkstation(0, "ws-2")
	var err error
	cell.Run(func(p *sim.Proc) {
		if err = ws2.Login(p, "satya", "pw"); err != nil {
			return
		}
		err = ws1.FS.WriteFile(p, "/vice/usr/satya/race", []byte("original"))
	})
	if err != nil {
		t.Fatal(err)
	}

	versionA := []byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA")
	versionB := []byte("BB")
	// Both stations open, write locally, then close; ws2's close lands
	// second in virtual time.
	cell.Run(func(p *sim.Proc) {
		f1, oerr := ws1.FS.Open(p, "/vice/usr/satya/race", FlagWrite|FlagTrunc)
		if oerr != nil {
			err = oerr
			return
		}
		f2, oerr := ws2.FS.Open(p, "/vice/usr/satya/race", FlagWrite|FlagTrunc)
		if oerr != nil {
			err = oerr
			return
		}
		if _, err = f1.Write(versionA); err != nil {
			return
		}
		if _, err = f2.Write(versionB); err != nil {
			return
		}
		if err = f1.Close(p); err != nil {
			return
		}
		err = f2.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	// A third, cold workstation sees exactly version B.
	ws3 := cell.AddWorkstation(0, "ws-3")
	var got []byte
	cell.Run(func(p *sim.Proc) {
		if err = ws3.Login(p, "satya", "pw"); err != nil {
			return
		}
		got, err = ws3.FS.ReadFile(p, "/vice/usr/satya/race")
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(versionB) {
		t.Fatalf("observer sees %q, want the last-closed version %q", got, versionB)
	}
}

// Salvage is also an administrative RPC (OpVolSalvage), usable from any
// authenticated operator connection.
func TestSalvageRPC(t *testing.T) {
	cell, ws := provision(t, Prototype, 1)
	var err error
	cell.Run(func(p *sim.Proc) {
		err = ws.FS.WriteFile(p, "/vice/usr/satya/f", []byte("x"))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range cell.Servers[0].Vice.VolumeIDs() {
		if v, ok := cell.Servers[0].Vice.Volume(id); ok && !v.ReadOnly() {
			v.CorruptForTest()
		}
	}
	var repairs proto.SalvageReply
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		repairs, err = admin.Salvage(p, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if repairs == (proto.SalvageReply{}) {
		t.Fatal("salvage RPC repaired nothing after corruption")
	}
	// Non-admins are refused.
	var denied error
	cell.Run(func(p *sim.Proc) {
		resp, cerr := cell.Workstations()[0].Endpoint.Dial(p, cell.Servers[0].Node.ID, "nobody", [32]byte{})
		_ = resp
		denied = cerr
	})
	if denied == nil {
		t.Fatal("unauthenticated dial succeeded")
	}
}

// Quota lifecycle: fill, fail, free, succeed.
func TestQuotaLifecycle(t *testing.T) {
	cell := NewCell(CellConfig{Mode: Prototype, Clusters: 1})
	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		err = admin.NewUser(p, "tight", "pw", 4096)
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := cell.AddWorkstation(0, "ws")
	cell.Run(func(p *sim.Proc) {
		if err = ws.Login(p, "tight", "pw"); err != nil {
			return
		}
		if err = ws.FS.WriteFile(p, "/vice/usr/tight/a", make([]byte, 3000)); err != nil {
			return
		}
		// Over quota.
		werr := ws.FS.WriteFile(p, "/vice/usr/tight/b", make([]byte, 2000))
		if !errors.Is(werr, ErrQuota) {
			err = fmt.Errorf("over-quota write: %v, want ErrQuota", werr)
			return
		}
		// Freeing space makes room.
		if err = ws.FS.Remove(p, "/vice/usr/tight/a"); err != nil {
			return
		}
		err = ws.FS.WriteFile(p, "/vice/usr/tight/b", make([]byte, 2000))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Degraded operation: a workstation cut off from a custodian keeps serving
// files it holds valid cached copies of — read-only, "the user ... can
// continue to use the files currently in its cache" — and the first read
// after the partition heals revalidates, picking up anything written on the
// other side. Exercised in both implementation modes.
func TestPartitionedClientServesCachedCopy(t *testing.T) {
	for _, mode := range []Mode{Prototype, Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			cell := NewCell(CellConfig{
				Mode:     mode,
				Clusters: 2,
				// Short timeout so unreachability is detected quickly;
				// a one-minute TTL so the revised client must revalidate
				// after the heal instead of trusting its dead promise.
				CallTimeout: 10 * time.Second,
				CallbackTTL: time.Minute,
			})
			var err error
			cell.Run(func(p *sim.Proc) {
				admin, aerr := cell.Admin(p, 0)
				if aerr != nil {
					err = aerr
					return
				}
				// The volume stays on server0 (cluster 0); the reader
				// lives in cluster 1 so partitioning cluster 1 cuts it
				// off from the custodian.
				err = admin.NewUser(p, "satya", "pw", 0)
			})
			if err != nil {
				t.Fatal(err)
			}
			reader := cell.AddWorkstation(1, "reader-ws")
			writer := cell.AddWorkstation(0, "writer-ws")
			const path = "/vice/usr/satya/doc"
			v1, v2 := []byte("version 1"), []byte("version 2, written across the partition")
			cell.Run(func(p *sim.Proc) {
				if err = reader.Login(p, "satya", "pw"); err != nil {
					return
				}
				if err = writer.Login(p, "satya", "pw"); err != nil {
					return
				}
				if err = writer.FS.WriteFile(p, path, v1); err != nil {
					return
				}
				_, err = reader.FS.ReadFile(p, path) // cache a valid copy
			})
			if err != nil {
				t.Fatal(err)
			}

			cell.Net.Partition(cell.Clusters[1])
			cell.Kernel.RunUntil(cell.Now().Add(2 * time.Minute)) // outlive the revised client's callback TTL
			var got []byte
			var werr error
			cell.Run(func(p *sim.Proc) {
				// Reads are served from the cache despite the dead network.
				got, err = reader.FS.ReadFile(p, path)
				// Writes are not: degraded service is read-only.
				werr = reader.FS.WriteFile(p, path, []byte("doomed"))
			})
			if err != nil {
				t.Fatalf("partitioned read with valid cache: %v", err)
			}
			if string(got) != string(v1) {
				t.Fatalf("partitioned read = %q, want cached %q", got, v1)
			}
			if !errors.Is(werr, rpc.ErrUnreachable) {
				t.Fatalf("partitioned write: %v, want ErrUnreachable", werr)
			}
			if n := reader.Venus.Stats().DegradedReads; n == 0 {
				t.Fatal("read during partition not counted as degraded")
			}

			// The other side of the partition moves on.
			cell.Run(func(p *sim.Proc) {
				err = writer.FS.WriteFile(p, path, v2)
			})
			if err != nil {
				t.Fatal(err)
			}

			// First read after the heal revalidates and sees the update.
			cell.Net.Heal(cell.Clusters[1])
			before := reader.Venus.Stats()
			cell.Run(func(p *sim.Proc) {
				got, err = reader.FS.ReadFile(p, path)
			})
			if err != nil {
				t.Fatalf("first read after heal: %v", err)
			}
			if string(got) != string(v2) {
				t.Fatalf("read after heal = %q, want %q (stale cache served)", got, v2)
			}
			after := reader.Venus.Stats()
			if after.Validations == before.Validations && after.Fetches == before.Fetches {
				t.Fatal("read after heal touched no server: cache trusted without revalidation")
			}
		})
	}
}

// A write that fails at close (write-on-close could not reach the
// custodian) must not resurrect: the failed bytes may not be served by
// later reads nor silently stored by a later close. The dangerous window
// is a crash inside the callback TTL — the open hits the fresh cache
// without touching the server, so only the store fails.
func TestFailedWriteDoesNotResurrect(t *testing.T) {
	cell := NewCell(CellConfig{
		Mode:             Revised,
		CallTimeout:      10 * time.Second,
		CallbackTTL:      10 * time.Minute,
		ReconnectRetries: 3, // redial the custodian after its restart
	})
	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		err = admin.NewUser(p, "satya", "pw", 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := cell.AddWorkstation(0, "ws")
	const path = "/vice/usr/satya/doc"
	cell.Run(func(p *sim.Proc) {
		if err = ws.Login(p, "satya", "pw"); err != nil {
			return
		}
		err = ws.FS.WriteFile(p, path, []byte("good"))
	})
	if err != nil {
		t.Fatal(err)
	}

	cell.CrashServer(0)
	var werr error
	cell.Run(func(p *sim.Proc) {
		// Open succeeds against the TTL-fresh cache; the store at close
		// is what fails.
		werr = ws.FS.WriteFile(p, path, []byte("doomed"))
	})
	if !errors.Is(werr, rpc.ErrUnreachable) {
		t.Fatalf("write to crashed custodian: %v, want ErrUnreachable", werr)
	}

	cell.RestartServer(0)
	cell.Kernel.RunUntil(cell.Now().Add(10 * time.Second))
	var got []byte
	cell.Run(func(p *sim.Proc) { got, err = ws.FS.ReadFile(p, path) })
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "good" {
		t.Fatalf("read after restart = %q, want %q (failed write resurrected)", got, "good")
	}
	// And the custodian never received the doomed bytes.
	ws2 := cell.AddWorkstation(0, "ws-fresh")
	cell.Run(func(p *sim.Proc) {
		if err = ws2.Login(p, "satya", "pw"); err != nil {
			return
		}
		got, err = ws2.FS.ReadFile(p, path)
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "good" {
		t.Fatalf("cold read after restart = %q, want %q", got, "good")
	}
}

// The transport distinguishes two kinds of unavailability: a call that
// times out on an established connection (ErrTimeout, which also matches
// ErrUnreachable so existing callers keep working) and a peer that cannot
// even be dialed (ErrUnreachable only).
func TestTimeoutVsUnreachable(t *testing.T) {
	cell := NewCell(CellConfig{CallTimeout: 5 * time.Second})
	cell.AddUser("satya", "pw")
	ws := cell.AddWorkstation(0, "ws")
	key := secure.DeriveKey("satya", "pw")

	var conn *rpc.SimConn
	var err error
	cell.Run(func(p *sim.Proc) {
		conn, err = ws.Endpoint.Dial(p, cell.Servers[0].Node.ID, "satya", key)
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	// The server dies with the connection established: the call times out.
	cell.CrashServer(0)
	var callErr error
	cell.Run(func(p *sim.Proc) {
		_, callErr = conn.Call(p, rpc.Request{
			Op:   rpc.Op(proto.OpGetCustodian),
			Body: proto.Marshal(proto.CustodianArgs{Path: "/"}),
		})
	})
	if !errors.Is(callErr, rpc.ErrTimeout) {
		t.Fatalf("call to crashed server: %v, want ErrTimeout", callErr)
	}
	if !errors.Is(callErr, rpc.ErrUnreachable) {
		t.Fatal("ErrTimeout must also match ErrUnreachable for existing callers")
	}

	// Dialing the dead server never establishes a connection at all.
	var dialErr error
	cell.Run(func(p *sim.Proc) {
		_, dialErr = ws.Endpoint.Dial(p, cell.Servers[0].Node.ID, "satya", key)
	})
	if !errors.Is(dialErr, rpc.ErrUnreachable) {
		t.Fatalf("dial to crashed server: %v, want ErrUnreachable", dialErr)
	}
	if errors.Is(dialErr, rpc.ErrTimeout) {
		t.Fatal("dial failure is not a call timeout: must not match ErrTimeout")
	}

	// After a restart the same endpoint can be dialed again.
	cell.RestartServer(0)
	cell.Run(func(p *sim.Proc) {
		_, err = ws.Endpoint.Dial(p, cell.Servers[0].Node.ID, "satya", key)
	})
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
}

// A station whose home server restarted redials it for the next location
// lookup instead of asking again on the connection that died with the
// server: a simulated connection reports no end of its own, so only the
// failed call can drop it. The station is in cluster 1 (home server1), its
// user's volume on server0; after server1 restarts it stats a volume it has
// not located yet, custodied by server1. The revised walk asks the home
// server where that volume is; without a redial every such lookup times out
// and nothing is ever counted in Reconnects. (The prototype reaches server1
// through server0's wrong-server redirect instead.) With the redial at most
// the first attempt fails, and none does when ReconnectRetries allows the
// redial inside the call.
func TestLocationLookupSurvivesHomeRestart(t *testing.T) {
	for _, mode := range []Mode{Prototype, Revised} {
		for _, retries := range []int{0, 1} {
			t.Run(fmt.Sprintf("%v/retries=%d", mode, retries), func(t *testing.T) {
				cell := NewCell(CellConfig{Mode: mode, Clusters: 2,
					CallTimeout: 10 * time.Second, ReconnectRetries: retries})
				if err := cell.Do(func(p *sim.Proc) error {
					admin, err := cell.Admin(p, 0)
					if err != nil {
						return err
					}
					if err := admin.NewUser(p, "satya", "pw", 0); err != nil {
						return err
					}
					_, err = admin.NewUserAt(p, "howard", "pw", 0, "server1")
					return err
				}); err != nil {
					t.Fatal(err)
				}
				ws := cell.AddWorkstation(1, "ws")
				if err := cell.Do(func(p *sim.Proc) error {
					if err := ws.Login(p, "satya", "pw"); err != nil {
						return err
					}
					return ws.FS.WriteFile(p, "/vice/usr/satya/f", []byte("mine"))
				}); err != nil {
					t.Fatal(err)
				}

				cell.CrashServer(1)
				cell.RestartServer(1)
				cell.Kernel.RunUntil(cell.Now().Add(time.Minute))
				timeouts := 0
				var err error
				for i := 0; i < 3; i++ {
					err = cell.Do(func(p *sim.Proc) error {
						_, err := ws.FS.Stat(p, "/vice/usr/howard")
						return err
					})
					if errors.Is(err, rpc.ErrTimeout) {
						timeouts++
					}
				}
				if err != nil {
					t.Fatalf("last stat: %v", err)
				}
				if limit := 1 - retries; timeouts > limit {
					t.Errorf("%d of 3 stats timed out, want at most %d", timeouts, limit)
				}
				if got := ws.Venus.Stats().Reconnects; got != 1 {
					t.Errorf("Reconnects = %d, want 1", got)
				}
			})
		}
	}
}
