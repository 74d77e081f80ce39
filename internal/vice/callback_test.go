package vice

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
)

// Unit coverage for the coalescing CallbackTable: registration order, the
// updater's kept promise, promises in several volumes, coalesced and chunked
// delivery, the unbatched ablation path, counter carry across Reset, and the
// whole table under goroutines.

// cbRecBack is a Backchannel that logs every callback RPC it receives.
type cbRecBack struct {
	name string
	mu   sync.Mutex
	reqs []rpc.Request // guarded by mu
}

// CallBack keeps a copy of req: a request is lent to the call only until it
// returns, and the table encodes its next break into the same pooled buffer.
func (b *cbRecBack) CallBack(_ *sim.Proc, req rpc.Request) (rpc.Response, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	req.Body = bytes.Clone(req.Body)
	b.reqs = append(b.reqs, req)
	return rpc.Response{}, nil
}

func (b *cbRecBack) BackUser() string { return b.name }

func (b *cbRecBack) requests() []rpc.Request {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]rpc.Request(nil), b.reqs...)
}

func cbFID(vol, vn uint32) proto.FID { return proto.FID{Volume: vol, Vnode: vn, Uniq: 1} }

// takeBacks is take of fid's promises into an empty slice, as the holders.
func takeBacks(tb *CallbackTable, fid proto.FID, skip rpc.Backchannel) []rpc.Backchannel {
	var backs []rpc.Backchannel
	for _, d := range tb.take(nil, BreakTarget{FID: fid}, skip) {
		backs = append(backs, d.back)
	}
	return backs
}

func TestCallbackTakeOrderAndSkipKeepsPromise(t *testing.T) {
	tb := newCallbackTable(Config{Mode: Revised})
	a := &cbRecBack{name: "a"}
	b := &cbRecBack{name: "b"}
	c := &cbRecBack{name: "c"}
	fid := cbFID(2, 1)
	tb.Promise(fid, a)
	tb.Promise(fid, b)
	tb.Promise(fid, c)

	got := takeBacks(tb, fid, b)
	if len(got) != 2 || got[0] != rpc.Backchannel(a) || got[1] != rpc.Backchannel(c) {
		t.Fatalf("take returned %d backchannels, want [a c] in registration order", len(got))
	}
	// The updater's own promise survives: its cache holds the new version.
	if n := tb.Outstanding(); n != 1 {
		t.Fatalf("after skip-take, %d promises outstanding, want 1 (the updater's)", n)
	}
	got = takeBacks(tb, fid, nil)
	if len(got) != 1 || got[0] != rpc.Backchannel(b) {
		t.Fatalf("second take should return just b, got %d entries", len(got))
	}
	if n := tb.Outstanding(); n != 0 {
		t.Fatalf("%d promises outstanding after both takes, want 0", n)
	}

	// Holders registered alternately on files of two volumes: each file's
	// break still fires in that file's registration order, whatever was
	// registered on the other file in between.
	backs := []*cbRecBack{a, b, c, {name: "d"}}
	f2, f3 := cbFID(2, 5), cbFID(3, 5)
	for i := range backs {
		tb.Promise(f2, backs[i])
		tb.Promise(f3, backs[len(backs)-1-i])
	}
	// Both files' deliveries go into one slice, as one update's do: each
	// file's run is in its own registration order, after the runs before it,
	// and the run that outgrows the slice's capacity keeps the earlier one.
	ds := make([]delivery, 0, 2)
	ds = tb.take(ds, BreakTarget{FID: f2, Path: "f2"}, nil)
	ds = tb.take(ds, BreakTarget{FID: f3, Path: "f3"}, nil)
	want := []*cbRecBack{a, b, c, backs[3], backs[3], c, b, a}
	if len(ds) != len(want) {
		t.Fatalf("two takes returned %d deliveries, want %d", len(ds), len(want))
	}
	for i, w := range want {
		fid, path := f2, "f2"
		if i >= 4 {
			fid, path = f3, "f3"
		}
		if ds[i].back != rpc.Backchannel(w) || ds[i].args != (proto.CallbackBreakArgs{FID: fid, Path: path}) {
			t.Fatalf("delivery %d = %s %v, want %s %s", i, ds[i].back.BackUser(), ds[i].args, w.name, path)
		}
	}
}

func TestCallbackShardingAndDrop(t *testing.T) {
	tb := newCallbackTable(Config{Mode: Revised})
	w := &cbRecBack{name: "w"}
	tb.Promise(cbFID(1, 1), w)
	tb.Promise(cbFID(2, 1), w)
	if n := tb.Outstanding(); n != 2 {
		t.Fatalf("Outstanding = %d, want 2", n)
	}
	tb.Drop(w)
	if n := tb.Outstanding(); n != 0 {
		t.Fatalf("Outstanding after Drop = %d, want 0", n)
	}
}

func TestCallbackCoalescesConcurrentBreaks(t *testing.T) {
	tb := newCallbackTable(Config{Mode: Revised})
	w := &cbRecBack{name: "w"}
	fid1, fid2 := cbFID(2, 1), cbFID(3, 7)
	tb.Promise(fid1, w)
	tb.Promise(fid2, w)

	k := sim.NewKernel()
	k.Spawn("upd1", func(p *sim.Proc) { tb.Break(p, nil, BreakTarget{FID: fid1, Path: "/f1"}) })
	k.Spawn("upd2", func(p *sim.Proc) { tb.Break(p, nil, BreakTarget{FID: fid2, Path: "/f2"}) })
	k.Run()

	reqs := w.requests()
	if len(reqs) != 1 {
		t.Fatalf("workstation received %d callback RPCs, want 1 coalesced", len(reqs))
	}
	if reqs[0].Op != rpc.Op(proto.OpBulkBreak) {
		t.Fatalf("coalesced delivery used op %d, want OpBulkBreak", reqs[0].Op)
	}
	args, err := proto.Unmarshal(reqs[0].Body, proto.DecodeBulkBreakArgs)
	if err != nil {
		t.Fatalf("decode BulkBreak body: %v", err)
	}
	if len(args.Items) != 2 || args.Items[0].FID != fid1 || args.Items[1].FID != fid2 {
		t.Fatalf("bulk break carried %+v, want fid1 then fid2 in arrival order", args.Items)
	}
	if n := tb.BreakRPCs(); n != 1 {
		t.Fatalf("BreakRPCs = %d, want 1", n)
	}
	if _, breaks := tb.Stats(); breaks != 2 {
		t.Fatalf("Stats breaks = %d, want 2", breaks)
	}
}

func TestCallbackSingleBreakUsesLegacyMessage(t *testing.T) {
	tb := newCallbackTable(Config{Mode: Revised})
	w := &cbRecBack{name: "w"}
	fid := cbFID(2, 1)
	tb.Promise(fid, w)

	k := sim.NewKernel()
	k.Spawn("upd", func(p *sim.Proc) { tb.Break(p, nil, BreakTarget{FID: fid, Path: "/f"}) })
	k.Run()

	reqs := w.requests()
	if len(reqs) != 1 {
		t.Fatalf("got %d RPCs, want 1", len(reqs))
	}
	// A lone break stays byte-compatible with the unbatched protocol.
	if reqs[0].Op != rpc.Op(proto.OpCallbackBreak) {
		t.Fatalf("single break used op %d, want OpCallbackBreak", reqs[0].Op)
	}
	args, err := proto.Unmarshal(reqs[0].Body, proto.DecodeCallbackBreakArgs)
	if err != nil || args.FID != fid || args.Path != "/f" {
		t.Fatalf("decoded %+v (err %v), want the broken fid and path", args, err)
	}
}

func TestCallbackUnbatchedPathSendsOneRPCPerPromise(t *testing.T) {
	tb := newCallbackTable(Config{Mode: Revised, UnbatchedBreaks: true})
	w := &cbRecBack{name: "w"}
	fid1, fid2 := cbFID(2, 1), cbFID(2, 2)
	tb.Promise(fid1, w)
	tb.Promise(fid2, w)

	k := sim.NewKernel()
	k.Spawn("upd", func(p *sim.Proc) {
		tb.Break(p, nil, BreakTarget{FID: fid1, Path: "/f1"}, BreakTarget{FID: fid2, Path: "/f2"})
	})
	k.Run()

	reqs := w.requests()
	if len(reqs) != 2 {
		t.Fatalf("unbatched path sent %d RPCs, want 2", len(reqs))
	}
	for i, r := range reqs {
		if r.Op != rpc.Op(proto.OpCallbackBreak) {
			t.Fatalf("rpc %d used op %d, want OpCallbackBreak", i, r.Op)
		}
	}
	if n := tb.BreakRPCs(); n != 2 {
		t.Fatalf("BreakRPCs = %d, want 2", n)
	}
}

func TestCallbackBulkDeliveryChunksAtMaxItems(t *testing.T) {
	tb := newCallbackTable(Config{Mode: Revised})
	w := &cbRecBack{name: "w"}
	n := proto.MaxBulkItems + 5
	targets := make([]BreakTarget, n)
	for i := 0; i < n; i++ {
		fid := cbFID(2, uint32(i+1))
		tb.Promise(fid, w)
		targets[i] = BreakTarget{FID: fid}
	}

	k := sim.NewKernel()
	k.Spawn("upd", func(p *sim.Proc) { tb.Break(p, nil, targets...) })
	k.Run()

	reqs := w.requests()
	if len(reqs) != 2 {
		t.Fatalf("%d invalidations arrived in %d RPCs, want 2 chunks", n, len(reqs))
	}
	total := 0
	for i, r := range reqs {
		if r.Op != rpc.Op(proto.OpBulkBreak) {
			t.Fatalf("rpc %d used op %d, want OpBulkBreak", i, r.Op)
		}
		args, err := proto.Unmarshal(r.Body, proto.DecodeBulkBreakArgs)
		if err != nil {
			t.Fatalf("decode chunk %d: %v", i, err)
		}
		if len(args.Items) > proto.MaxBulkItems {
			t.Fatalf("chunk %d carries %d items, limit %d", i, len(args.Items), proto.MaxBulkItems)
		}
		total += len(args.Items)
	}
	if total != n {
		t.Fatalf("chunks delivered %d invalidations, want %d", total, n)
	}
}

func TestCallbackResetCarriesCumulativeCounters(t *testing.T) {
	tb := newCallbackTable(Config{Mode: Revised})
	w := &cbRecBack{name: "w"}
	for i := 0; i < 3; i++ {
		tb.Promise(cbFID(2, uint32(i+1)), w)
	}
	if promised, _ := tb.Stats(); promised != 3 {
		t.Fatalf("promised = %d, want 3", promised)
	}
	tb.Reset()
	if n := tb.Outstanding(); n != 0 {
		t.Fatalf("Outstanding after Reset = %d, want 0", n)
	}
	tb.Promise(cbFID(4, 9), w)
	tb.Promise(cbFID(4, 10), w)
	if promised, _ := tb.Stats(); promised != 5 {
		t.Fatalf("cumulative promised after Reset = %d, want 5", promised)
	}
	if n := tb.Outstanding(); n != 2 {
		t.Fatalf("Outstanding = %d, want 2", n)
	}
}

// TestCallbackTableConcurrent is the table in the daemon's regime: goroutines,
// not simulator processes (p == nil, so every delivery is a synchronous
// unbatched RPC made by the Break that took the promise). Workers promise,
// break, drop and read counters over files of three volumes, and one of them
// resets the table under the others; run it under -race. Every back
// channel is promised each file at most once and only by the worker that owns
// it, so a promise granted to it has exactly one fate — broken (a request it
// recorded), reset away, dropped, or still outstanding — and the fates must
// add up.
func TestCallbackTableConcurrent(t *testing.T) {
	const workers, rounds, opsPerRound = 6, 30, 80
	tb := newCallbackTable(Config{Mode: Revised})
	var fids []proto.FID
	for vol := uint32(1); vol <= 3; vol++ {
		for vn := uint32(1); vn <= 16; vn++ {
			fids = append(fids, cbFID(vol, vn))
		}
	}

	type owned struct {
		back    *cbRecBack
		granted int
		dropped bool
	}
	backs := make([][]*owned, workers)
	var discarded []map[proto.FID]map[rpc.Backchannel]int64 // worker 0's
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for r := 0; r < rounds; r++ {
				o := &owned{back: &cbRecBack{name: fmt.Sprintf("w%d.%d", w, r)}}
				backs[w] = append(backs[w], o)
				fresh := rng.Perm(len(fids)) // files o.back has not been promised yet
				for i := 0; i < opsPerRound; i++ {
					switch op := rng.Intn(10); {
					case op < 5 && len(fresh) > 0:
						tb.Promise(fids[fresh[0]], o.back)
						fresh = fresh[1:]
						o.granted++
					case op < 8:
						// A target's Path names the updater, so a back channel
						// can tell a break that should have skipped it.
						var skip rpc.Backchannel
						path := ""
						if rng.Intn(2) == 0 {
							skip, path = o.back, o.back.name
						}
						targets := make([]BreakTarget, 1+rng.Intn(3))
						for j := range targets {
							targets[j] = BreakTarget{FID: fids[rng.Intn(len(fids))], Path: path}
						}
						tb.Break(nil, skip, targets...)
					case op == 8 && w == 0:
						// Reset replaces the promise map and only this worker
						// calls it, so the map seen just before the call is the
						// one it discards: once Reset returns nothing touches
						// that map, and it says what was reset away.
						tb.mu.Lock()
						old := tb.promises
						tb.mu.Unlock()
						tb.Reset()
						discarded = append(discarded, old)
					default:
						tb.Stats()
						tb.Outstanding()
						tb.BreakRPCs()
					}
				}
				if o.dropped = rng.Intn(2) == 0; o.dropped {
					tb.Drop(o.back)
				}
			}
		}(w)
	}
	wg.Wait()

	resetAway := make(map[rpc.Backchannel]int)
	outstanding := make(map[rpc.Backchannel]int)
	for _, m := range discarded {
		for _, set := range m {
			for back := range set {
				resetAway[back]++
			}
		}
	}
	tb.mu.Lock()
	for _, set := range tb.promises {
		for back := range set {
			outstanding[back]++
		}
	}
	tb.mu.Unlock()

	var granted, broken, dropped, reset, left int64
	for _, mine := range backs {
		for _, o := range mine {
			seen := make(map[proto.FID]bool)
			for _, req := range o.back.requests() {
				args, err := proto.Unmarshal(req.Body, proto.DecodeCallbackBreakArgs)
				if err != nil || req.Op != rpc.Op(proto.OpCallbackBreak) {
					t.Fatalf("%s received op %d (decode: %v), want a lone CallbackBreak", o.back.name, req.Op, err)
				}
				if args.Path == o.back.name {
					t.Fatalf("%s was the updater of %v and lost its promise to its own break", o.back.name, args.FID)
				}
				if seen[args.FID] {
					t.Fatalf("%s was promised %v once and told twice that it broke", o.back.name, args.FID)
				}
				seen[args.FID] = true
			}
			unaccounted := o.granted - len(seen) - resetAway[o.back] - outstanding[o.back]
			switch {
			case o.dropped && outstanding[o.back] != 0:
				t.Fatalf("%s holds %d promises after Drop", o.back.name, outstanding[o.back])
			case o.dropped && unaccounted < 0, !o.dropped && unaccounted != 0:
				t.Fatalf("%s (dropped=%v): %d granted, %d broken, %d reset away, %d outstanding",
					o.back.name, o.dropped, o.granted, len(seen), resetAway[o.back], outstanding[o.back])
			}
			granted += int64(o.granted)
			broken += int64(len(seen))
			dropped += int64(unaccounted) // nothing but Drop is left to explain it
			reset += int64(resetAway[o.back])
			left += int64(outstanding[o.back])
		}
	}
	promised, breaks := tb.Stats()
	if promised != granted || breaks != broken || tb.BreakRPCs() != broken || int64(tb.Outstanding()) != left {
		t.Fatalf("table counts %d promised, %d breaks, %d break RPCs, %d outstanding; the back channels saw %d, %d, %d, %d",
			promised, breaks, tb.BreakRPCs(), tb.Outstanding(), granted, broken, broken, left)
	}
	if promised != breaks+dropped+reset+left {
		t.Fatalf("%d promised != %d broken + %d dropped + %d reset away + %d outstanding", promised, breaks, dropped, reset, left)
	}
	if breaks == 0 || dropped == 0 || reset == 0 {
		t.Fatalf("mix too thin to mean anything: %d broken, %d dropped, %d reset away", breaks, dropped, reset)
	}
	t.Logf("%d promised = %d broken + %d dropped + %d reset away + %d outstanding", promised, breaks, dropped, reset, left)
}
