package vice

import (
	"bytes"
	"fmt"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
)

// raceEnabled is set by race_test.go: sync.Pool drops items at random under
// the race detector, so exact object counts do not hold.
var raceEnabled bool

// mutationAllocs is the server's objects for three mutations — a create, a
// 2 KiB store and a remove in a 64-entry directory, each dispatched,
// authorized, applied, journalled by walstore on MemFS, synced and answered,
// the reply released as a carrier releases it: 4.7 a mutation. An earlier
// commit measured 82 (27.3 a mutation) with this same test: draining the
// dirty sets into fresh maps and slices, encoding the directory (all 65 names
// collected and sorted) into an encoder of its own and copying it out, and
// building the record in a fresh buffer made up the difference. It then
// measured 18 while each reply's status was boxed into a wire.Message and
// copied out of the encoder it was marshalled in (two objects for the create
// and two for the store; the remove replies with no body).
const mutationAllocs = 14

func TestMutationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ws, err := walstore.Open(store.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	d := newDurableServer(t, ws)
	d.call(t, "operator", proto.OpMakeDir, proto.Marshal(proto.NameArgs{Dir: pathRef("/"), Name: "d", Mode: 0o755}), nil)
	for i := 0; i < 64; i++ {
		d.call(t, "operator", proto.OpCreate,
			proto.Marshal(proto.NameArgs{Dir: pathRef("/d"), Name: fmt.Sprintf("file%02d", i), Mode: 0o644}), nil)
	}
	name := proto.Marshal(proto.NameArgs{Dir: pathRef("/d"), Name: "scratch", Mode: 0o644})
	file := proto.Marshal(proto.StoreArgs{Ref: pathRef("/d/scratch")})
	contents := bytes.Repeat([]byte("itc-vice"), 2048/8)
	got := testing.AllocsPerRun(100, func() {
		d.call(t, "operator", proto.OpCreate, name, nil)
		d.call(t, "operator", proto.OpStore, file, contents)
		d.call(t, "operator", proto.OpRemove, name, nil)
	})
	if got > mutationAllocs {
		t.Fatalf("create + store(2 KiB) + remove allocate %.0f objects, pinned at %d", got, mutationAllocs)
	}
	t.Logf("create + store(2 KiB) + remove: %.0f allocs, %.1f per mutation", got, got/3)
}
