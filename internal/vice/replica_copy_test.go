package vice

// A replica is a copy. A clone shares its parent's file contents on the one
// server that holds both (copy-on-write, volume.Clone); a replica on another
// server holds its own bytes, equal to the clone's, and keeps them across
// that server's crash and recovery.

import (
	"bytes"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
)

// releaseFiles are the files the tests below release: a small one and one
// from the hand-over size on, which the volume keeps as the store's buffer.
// They are in name order, the order a directory listing returns.
var releaseFiles = []struct {
	name string
	size int
}{{"cc", 300 << 10}, {"ls", 100}}

// storeRelease creates /bin on server0 and stores releaseFiles in it,
// returning the volume and each file's vnode.
func storeRelease(t *testing.T, c *cell) (uint32, []uint32) {
	t.Helper()
	vid := c.mkVolume(t, "sys.bin", "/bin", "operator", 0)
	var vnodes []uint32
	for i, f := range releaseFiles {
		st := c.store(t, "operator", "/bin/"+f.name, fill(f.size, byte(i+1)))
		vnodes = append(vnodes, st.FID.Vnode)
	}
	return vid, vnodes
}

// cloneOnto releases vid as a read-only clone at /bin-ro, replicated to the
// named servers, and returns the clone's volume.
func cloneOnto(t *testing.T, c *cell, vid uint32, replicas ...string) uint32 {
	t.Helper()
	resp := mustOK(t, c.call("operator", 0, proto.OpVolClone,
		proto.Marshal(proto.VolCloneArgs{Volume: vid, Path: "/bin-ro", Replicas: replicas}), nil))
	vs, err := proto.Unmarshal(resp.Body, proto.DecodeVolStatusReply)
	if err != nil {
		t.Fatal(err)
	}
	return vs.Volume
}

// TestCloneSharesItsParentsBytes: on the custodian, a release's clone holds
// the very slices of its read-write parent; nothing is copied until the
// parent is written.
func TestCloneSharesItsParentsBytes(t *testing.T) {
	c := newCell(t, Prototype, 1)
	vid, vnodes := storeRelease(t, c)
	cid := cloneOnto(t, c, vid)
	rw, _ := c.servers[0].Volume(vid)
	clone, ok := c.servers[0].Volume(cid)
	if !ok {
		t.Fatal("clone missing on custodian")
	}
	for i, vn := range vnodes {
		parent, _ := rw.DataOf(vn)
		held, ok := clone.DataOf(vn)
		if !ok || len(held) != releaseFiles[i].size || &held[0] != &parent[0] {
			t.Errorf("%s: the clone does not share its parent's bytes", releaseFiles[i].name)
		}
	}
}

// TestReplicaHoldsItsOwnBytes: every replica of a release is byte-equal to
// the clone, image and file contents alike, and no two servers share any of
// those contents' memory.
func TestReplicaHoldsItsOwnBytes(t *testing.T) {
	c := newCell(t, Prototype, 3)
	vid, vnodes := storeRelease(t, c)
	cid := cloneOnto(t, c, vid, "server1", "server2")
	clone, _ := c.servers[0].Volume(cid)
	want := clone.Serialize()
	held := make(map[*byte]string) // first byte of each file's contents -> its server
	for _, srv := range c.servers {
		vol, ok := srv.Volume(cid)
		if !ok {
			t.Fatalf("%s lacks volume %d", srv.Name(), cid)
		}
		if !bytes.Equal(vol.Serialize(), want) {
			t.Errorf("%s: the image differs from the clone's", srv.Name())
		}
		for i, vn := range vnodes {
			f := releaseFiles[i]
			data, ok := vol.DataOf(vn)
			if !ok || !bytes.Equal(data, fill(f.size, byte(i+1))) {
				t.Fatalf("%s: %s does not hold the released contents", srv.Name(), f.name)
			}
			if other, shared := held[&data[0]]; shared {
				t.Errorf("%s: %s shares its contents with %s", srv.Name(), f.name, other)
			}
			held[&data[0]] = srv.Name()
		}
	}
}

// TestRecoveredReplicaEqualsItsClone: a replica journalled by its server is
// rebuilt by that server's recovery, after a crash that skipped every
// checkpoint, with the clone's image byte for byte.
func TestRecoveredReplicaEqualsItsClone(t *testing.T) {
	c := newCell(t, Prototype, 1)
	vid, _ := storeRelease(t, c)
	fsys := store.NewMemFS()
	var clock int64
	// replica brings up server1 over fsys's bytes, recovering what they hold.
	replica := func() *Server {
		ws, err := walstore.Open(fsys)
		if err != nil {
			t.Fatal(err)
		}
		db := prot.NewDB()
		if err := db.LoadSnapshot(c.servers[0].cfg.DB.Snapshot()); err != nil {
			t.Fatal(err)
		}
		s := New(Config{Name: "server1", Mode: Prototype, DB: db, Loc: NewLocDB(),
			Clock: func() int64 { clock++; return clock }, AllocVolID: func() uint32 { return 99 }, Store: ws})
		if _, err := s.RecoverStore(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	c.servers[0].AddPeer("server1", directCaller{replica()})
	cid := cloneOnto(t, c, vid, "server1")
	clone, _ := c.servers[0].Volume(cid)
	want := clone.Serialize()

	// The first server1 is abandoned without a checkpoint: the second one
	// replays the journal.
	s1 := replica()
	vol, ok := s1.Volume(cid)
	if !ok {
		t.Fatal("the recovered server lost its replica")
	}
	if got := vol.Serialize(); !bytes.Equal(got, want) {
		t.Fatalf("recovered replica image: %d bytes, differs from the clone's %d", len(got), len(want))
	}
	var names []string
	for _, f := range releaseFiles {
		names = append(names, f.name)
	}
	replicaHasListing(t, s1, cid, names...)
	if le, ok := s1.Loc().Resolve("/bin-ro"); !ok || le.Volume != cid {
		t.Fatalf("recovered location entry = %+v, %v", le, ok)
	}
}
