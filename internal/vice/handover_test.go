package vice

import (
	"bytes"
	"runtime"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
)

// A store hands its Bulk over to the volume instead of having it copied.
// These tests pin the rule's two sides, the copy-on-write invariant it leans
// on, and the allocation it saves.

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13) ^ byte(i>>7) ^ seed
	}
	return b
}

// TestStoreCloneStoreLeavesCloneUntouched stores a file, clones the volume,
// and stores the file again: the clone shares the first store's slice, so it
// survives only if the second store replaced the vnode's contents instead of
// writing into them. It also checks which slice the volume ends up holding:
// the request's own buffer when its carrier handed it over (rpc.Request.Owned),
// whatever its size, and a right-sized copy of a lent one (a small file must
// not pin the frame it arrived in).
func TestStoreCloneStoreLeavesCloneUntouched(t *testing.T) {
	for _, tc := range []struct {
		size  int
		owned bool
	}{{100, false}, {64 << 10, false}, {256 << 10, false}, {100, true}, {256 << 10, true}} {
		size := tc.size
		c := newCell(t, Revised, 1)
		vid := c.mkVolume(t, "u", "/u", "satya", 0)
		v1, v2 := fill(size, 1), fill(size, 2)
		want1 := bytes.Clone(v1)

		c.store(t, "satya", "/u/f", v1)
		mustOK(t, c.call("operator", 0, proto.OpVolClone,
			proto.Marshal(proto.VolCloneArgs{Volume: vid, Path: "/u-v1"}), nil))
		resp := mustOK(t, c.servers[0].Dispatcher().Dispatch(rpc.Ctx{User: "satya"}, rpc.Request{
			Op:   rpc.Op(proto.OpStore),
			Body: proto.Marshal(proto.StoreArgs{Ref: pathRef("/u/f")}), Bulk: v2, Owned: tc.owned,
		}))
		st, err := proto.Unmarshal(resp.Body, proto.DecodeStatus)
		if err != nil {
			t.Fatal(err)
		}

		if got, _ := c.fetch(t, "satya", "/u-v1/f"); !bytes.Equal(got, want1) {
			t.Fatalf("size %d: the clone's bytes changed under a store to its parent", size)
		}
		if got, _ := c.fetch(t, "satya", "/u/f"); !bytes.Equal(got, v2) {
			t.Fatalf("size %d: the read-write volume does not hold the second store", size)
		}
		rw, _ := c.servers[0].Volume(vid)
		held, _ := rw.DataOf(st.FID.Vnode)
		if kept := &held[0] == &v2[0]; kept != tc.owned {
			t.Fatalf("size %d, owned %v: volume holds the request's buffer = %v", size, tc.owned, kept)
		}
		if !tc.owned && cap(held) > size+size/8+16 {
			t.Fatalf("size %d: the volume's copy has capacity %d", size, cap(held))
		}
	}
}

// TestHandleStoreAllocatesNothingFileSized is the server half of the
// hand-over gate: a warm 4 MiB store on a walstore-backed server allocates,
// beyond the request buffer it is handed, nothing of the file's size. The
// volume keeps the request's buffer and walstore builds the record in the
// buffer its last record grew. Copying Bulk into the volume first, as
// before, costs a payload, and so does a record in a buffer of its own.
func TestHandleStoreAllocatesNothingFileSized(t *testing.T) {
	const size = 4 << 20
	ws, err := walstore.Open(store.DirFS(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	d := newDurableServer(t, ws)
	d.call(t, "operator", proto.OpCreate,
		proto.Marshal(proto.NameArgs{Dir: pathRef("/"), Name: "f", Mode: 0o644}), nil)
	body := proto.Marshal(proto.StoreArgs{Ref: pathRef("/f")})
	const runs = 4
	bufs := make([][]byte, runs+1)
	for i := range bufs {
		bufs[i] = fill(size, byte(i)) // each store surrenders its buffer
	}
	d.call(t, "operator", proto.OpStore, body, bufs[runs]) // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		d.call(t, "operator", proto.OpStore, body, bufs[i])
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := float64(64 << 10); per > limit {
		t.Fatalf("a warm 4 MiB store allocated %.0f bytes beyond its request, want under %.0f", per, limit)
	}
	if got := d.call(t, "operator", proto.OpFetch,
		proto.Marshal(proto.FetchArgs{Ref: pathRef("/f")}), nil); !bytes.Equal(got, bufs[runs-1]) {
		t.Fatal("fetch does not return the last store")
	}
}
