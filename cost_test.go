package itcfs

import (
	"testing"
	"testing/quick"
	"time"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
)

func TestPathComponents(t *testing.T) {
	mk := func(path string) rpc.Request {
		return rpc.Request{
			Op:   rpc.Op(proto.OpFetch),
			Body: proto.Marshal(proto.FetchArgs{Ref: proto.Ref{Path: path}}),
		}
	}
	cases := []struct {
		path string
		want int
	}{
		{"/", 1},
		{"/usr", 1},
		{"/usr/satya", 2},
		{"/usr/satya/src/main.c", 4},
	}
	for _, c := range cases {
		if got := pathComponents(mk(c.path)); got != c.want {
			t.Errorf("pathComponents(%q) = %d, want %d", c.path, got, c.want)
		}
	}
	// FID-mode requests carry an empty path: no walk charge.
	fidReq := rpc.Request{
		Op:   rpc.Op(proto.OpFetch),
		Body: proto.Marshal(proto.FetchArgs{Ref: proto.Ref{FID: proto.FID{Volume: 1, Vnode: 2, Uniq: 3}}}),
	}
	if got := pathComponents(fidReq); got != 0 {
		t.Errorf("FID request walked %d components", got)
	}
	// Bodies that are not path-shaped charge nothing and never panic.
	for _, body := range [][]byte{nil, {1}, {255, 255, 255, 255}, []byte("garbage!")} {
		if got := pathComponents(rpc.Request{Body: body}); got != 0 {
			t.Errorf("garbage body %v walked %d", body, got)
		}
	}
}

// TestPathComponentsAllocatesNothing: the prototype prices every call with a
// path, so counting its components must not copy the path, however long.
func TestPathComponentsAllocatesNothing(t *testing.T) {
	path := "/usr/satya/src/itcfs/internal/venus/resolve.go.cc"
	if len(path) != 49 {
		t.Fatalf("path is %d bytes", len(path))
	}
	req := rpc.Request{Op: rpc.Op(proto.OpFetch), Body: proto.Marshal(proto.FetchArgs{Ref: proto.Ref{Path: path}})}
	n := 0
	if allocs := testing.AllocsPerRun(100, func() { n = pathComponents(req) }); allocs != 0 {
		t.Errorf("pathComponents allocated %v times", allocs)
	}
	if n != 7 {
		t.Errorf("pathComponents(%q) = %d, want 7", path, n)
	}
}

func TestCostModelModes(t *testing.T) {
	costs := DefaultCosts()
	fetch := rpc.Request{
		Op:   rpc.Op(proto.OpFetch),
		Body: proto.Marshal(proto.FetchArgs{Ref: proto.Ref{Path: "/usr/satya/file"}}),
	}
	resp := rpc.Response{Bulk: make([]byte, 8192)}

	protoCPU, protoDisk := vicePrice(costs, Prototype, fetch, resp)
	revCPU, revDisk := vicePrice(costs, Revised, fetch, resp)
	// The prototype pays the process switch and the per-component walk on
	// top of everything the revised server pays.
	wantDelta := costs.ProcessSwitch + 3*costs.WalkComponent
	if protoCPU-revCPU != wantDelta {
		t.Errorf("prototype surcharge = %v, want %v", protoCPU-revCPU, wantDelta)
	}
	if protoDisk != revDisk {
		t.Errorf("disk differs across modes: %v vs %v", protoDisk, revDisk)
	}
	// Data size scales both CPU and disk.
	smallCPU, smallDisk := vicePrice(costs, Revised, fetch, rpc.Response{Bulk: make([]byte, 1024)})
	if smallCPU >= revCPU || smallDisk >= revDisk {
		t.Error("larger responses must cost more")
	}
}

func TestCostModelValidationIsCheapFetchIsNot(t *testing.T) {
	// The entire E6 argument rests on this ordering.
	costs := DefaultCosts()
	valid, _ := vicePrice(costs, Prototype, rpc.Request{
		Op:   rpc.Op(proto.OpTestValid),
		Body: proto.Marshal(proto.TestValidArgs{Ref: proto.Ref{Path: "/u/f"}}),
	}, rpc.Response{})
	fetch, _ := vicePrice(costs, Prototype, rpc.Request{
		Op:   rpc.Op(proto.OpFetch),
		Body: proto.Marshal(proto.FetchArgs{Ref: proto.Ref{Path: "/u/f"}}),
	}, rpc.Response{Bulk: make([]byte, 4096)})
	if valid*5 > fetch {
		t.Errorf("validation (%v) not much cheaper than fetch (%v)", valid, fetch)
	}
}

// onDevices builds a bill on a fresh CPU and disk, lets serve run it in a
// simulated process, and returns how long each device was held.
func onDevices(mk func(cpu, disk *sim.Resource) rpc.Bill, serve func(rpc.Bill, *sim.Proc)) (cpu, disk time.Duration) {
	k := sim.NewKernel()
	cpuR, diskR := sim.NewResource(k, "cpu"), sim.NewResource(k, "disk")
	b := mk(cpuR, diskR)
	k.Spawn("serve", func(p *sim.Proc) { serve(b, p) })
	k.Run()
	return cpuR.BusyTime(), diskR.BusyTime()
}

// vicePrice is what serving req with reply resp costs a Vice server's CPU
// and disk under c in mode.
func vicePrice(c CostConfig, mode Mode, req rpc.Request, resp rpc.Response) (cpu, disk time.Duration) {
	return onDevices(func(cpu, disk *sim.Resource) rpc.Bill { return c.Bill(mode, cpu, disk) },
		func(b rpc.Bill, p *sim.Proc) { b.Call(rpc.Ctx{Proc: p}, req, resp) })
}

// pagePrice is the same for E8's page server.
func pagePrice(c CostConfig, req rpc.Request, resp rpc.Response) (cpu, disk time.Duration) {
	return onDevices(c.PageBill, func(b rpc.Bill, p *sim.Proc) { b.Call(rpc.Ctx{Proc: p}, req, resp) })
}

// pageHandshake is what one handshake message costs E8's page server.
func pageHandshake(c CostConfig) (cpu, disk time.Duration) {
	return onDevices(c.PageBill, func(b rpc.Bill, p *sim.Proc) { b.Handshake(p) })
}

// TestPriceList pins every price DefaultCosts sets: each Vice op class in
// both modes, the prototype's surcharges, and E8's page server.
func TestPriceList(t *testing.T) {
	const ms = time.Millisecond
	c := DefaultCosts()
	ref := func(path string) proto.Ref { return proto.Ref{Path: path} }
	fid := proto.Ref{FID: proto.FID{Volume: 1, Vnode: 2, Uniq: 3}}
	count := func(n uint32) []byte { return []byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)} }
	req := func(op uint16, body []byte, bulk int) rpc.Request {
		return rpc.Request{Op: rpc.Op(op), Body: body, Bulk: make([]byte, bulk)}
	}
	reply := func(bulk int) rpc.Response { return rpc.Response{Bulk: make([]byte, bulk)} }
	cases := []struct {
		name      string
		req       rpc.Request
		resp      rpc.Response
		cpu, disk time.Duration // revised mode
	}{
		{"TestValid", req(proto.OpTestValid, proto.Marshal(proto.TestValidArgs{Ref: fid}), 0), reply(0), 45 * ms, 65 * ms},
		{"BulkTestValid of 0", req(proto.OpBulkTestValid, count(0), 0), reply(0), 15 * ms, 65 * ms},
		{"BulkTestValid of 3", req(proto.OpBulkTestValid, count(3), 0), reply(0), 105 * ms, 65 * ms},
		{"BulkTestValid over the cap", req(proto.OpBulkTestValid, count(proto.MaxBulkItems+1), 0), reply(0), 15*ms + proto.MaxBulkItems*30*ms, 65 * ms},
		{"BulkTestValid of 2^32-1", req(proto.OpBulkTestValid, count(1<<32-1), 0), reply(0), 15*ms + proto.MaxBulkItems*30*ms, 65 * ms},
		{"BulkTestValid short body", req(proto.OpBulkTestValid, []byte{1}, 0), reply(0), 15 * ms, 65 * ms},
		{"FetchStatus", req(proto.OpFetchStatus, proto.Marshal(proto.StatusArgs{Ref: fid}), 0), reply(0), 65 * ms, 65 * ms},
		{"SetStatus", req(proto.OpSetStatus, proto.Marshal(proto.SetStatusArgs{Ref: fid}), 0), reply(0), 65 * ms, 65 * ms},
		{"Fetch 8 KB", req(proto.OpFetch, proto.Marshal(proto.FetchArgs{Ref: fid}), 0), reply(8192), 1775 * ms, 430 * ms},
		{"Fetch 1025 B", req(proto.OpFetch, proto.Marshal(proto.FetchArgs{Ref: fid}), 0), reply(1025), 1655 * ms, 370 * ms},
		{"Fetch empty", req(proto.OpFetch, proto.Marshal(proto.FetchArgs{Ref: fid}), 0), reply(0), 1615 * ms, 350 * ms},
		{"Store 4 KB", req(proto.OpStore, proto.Marshal(proto.StoreArgs{Ref: fid}), 4096), reply(0), 2095 * ms, 490 * ms},
		{"Create", req(proto.OpCreate, proto.Marshal(proto.NameArgs{Dir: fid, Name: "f"}), 0), reply(0), 535 * ms, 225 * ms},
		{"MakeDir", req(proto.OpMakeDir, proto.Marshal(proto.NameArgs{Dir: fid, Name: "d"}), 0), reply(0), 535 * ms, 225 * ms},
		{"Remove", req(proto.OpRemove, nil, 0), reply(0), 535 * ms, 225 * ms},
		{"RemoveDir", req(proto.OpRemoveDir, nil, 0), reply(0), 535 * ms, 225 * ms},
		{"Rename", req(proto.OpRename, nil, 0), reply(0), 535 * ms, 225 * ms},
		{"Symlink", req(proto.OpSymlink, nil, 0), reply(0), 535 * ms, 225 * ms},
		{"Link", req(proto.OpLink, nil, 0), reply(0), 535 * ms, 225 * ms},
		{"SetACL", req(proto.OpSetACL, nil, 0), reply(0), 535 * ms, 225 * ms},
		{"GetACL", req(proto.OpGetACL, nil, 0), reply(0), 55 * ms, 0},
		{"GetCustodian", req(proto.OpGetCustodian, nil, 0), reply(0), 55 * ms, 0},
		{"VolCreate", req(proto.OpVolCreate, nil, 0), reply(0), 55 * ms, 0},
	}
	for _, tc := range cases {
		cpu, disk := vicePrice(c, Revised, tc.req, tc.resp)
		if cpu != tc.cpu || disk != tc.disk {
			t.Errorf("revised %s: cpu %v disk %v, want %v and %v", tc.name, cpu, disk, tc.cpu, tc.disk)
		}
		// A FID or a body that is no path walks nothing: the prototype pays
		// only its process switch on top.
		cpu, disk = vicePrice(c, Prototype, tc.req, tc.resp)
		if cpu != tc.cpu+40*ms || disk != tc.disk {
			t.Errorf("prototype %s: cpu %v disk %v, want %v and %v", tc.name, cpu, disk, tc.cpu+40*ms, tc.disk)
		}
	}

	// The prototype walks the path: 20 ms per component, beside the switch.
	for _, tc := range []struct {
		path      string
		walk      time.Duration
		op        uint16
		body      func(proto.Ref) []byte
		cpu, disk time.Duration // revised mode, whose clients send the path too here
	}{
		{"/usr/satya/src/main.c", 80 * ms, proto.OpTestValid, func(r proto.Ref) []byte { return proto.Marshal(proto.TestValidArgs{Ref: r}) }, 45 * ms, 65 * ms},
		{"/usr", 20 * ms, proto.OpFetchStatus, func(r proto.Ref) []byte { return proto.Marshal(proto.StatusArgs{Ref: r}) }, 65 * ms, 65 * ms},
		{"/", 20 * ms, proto.OpMakeDir, func(r proto.Ref) []byte { return proto.Marshal(proto.NameArgs{Dir: r, Name: "d"}) }, 535 * ms, 225 * ms},
		{"usr/satya", 0, proto.OpFetchStatus, func(r proto.Ref) []byte { return proto.Marshal(proto.StatusArgs{Ref: r}) }, 65 * ms, 65 * ms},
	} {
		r := req(tc.op, tc.body(ref(tc.path)), 0)
		if cpu, disk := vicePrice(c, Revised, r, reply(0)); cpu != tc.cpu || disk != tc.disk {
			t.Errorf("revised op %d on %q: cpu %v disk %v, want %v and %v", tc.op, tc.path, cpu, disk, tc.cpu, tc.disk)
		}
		want := tc.cpu + 40*ms + tc.walk
		if cpu, disk := vicePrice(c, Prototype, r, reply(0)); cpu != want || disk != tc.disk {
			t.Errorf("prototype op %d on %q: cpu %v disk %v, want %v and %v", tc.op, tc.path, cpu, disk, want, tc.disk)
		}
	}

	// E8's page server: every op pays a light Vice call's CPU (base, switch,
	// validation: 85 ms) plus 20 ms per KB moved either way; reads and
	// writes also pay a fetch's disk access plus 10 ms per KB.
	const pgOpen, pgRead, pgWrite, pgClose, pgStat = 100, 101, 102, 103, 104 // baseline's page ops
	for _, tc := range []struct {
		name      string
		req       rpc.Request
		resp      rpc.Response
		cpu, disk time.Duration
	}{
		{"open", req(pgOpen, []byte("/seq"), 0), reply(0), 85 * ms, 0},
		{"stat", req(pgStat, []byte("/seq"), 0), reply(0), 85 * ms, 0},
		{"close", req(pgClose, nil, 0), reply(0), 85 * ms, 0},
		{"read a page", req(pgRead, nil, 0), reply(4096), 165 * ms, 390 * ms},
		{"read 100 B", req(pgRead, nil, 0), reply(100), 105 * ms, 360 * ms},
		{"read past EOF", req(pgRead, nil, 0), reply(0), 85 * ms, 350 * ms},
		{"write a page", req(pgWrite, nil, 4096), reply(0), 165 * ms, 390 * ms},
	} {
		if cpu, disk := pagePrice(c, tc.req, tc.resp); cpu != tc.cpu || disk != tc.disk {
			t.Errorf("page %s: cpu %v disk %v, want %v and %v", tc.name, cpu, disk, tc.cpu, tc.disk)
		}
	}
	if cpu, disk := pageHandshake(c); cpu != 0 || disk != 0 {
		t.Errorf("page handshake: cpu %v disk %v, want it free", cpu, disk)
	}
}

// TestHandshakePriceAndZeroCharges: a Vice server pays AuthCPU for each
// handshake message it serves, and a charge of zero never touches a device.
func TestHandshakePriceAndZeroCharges(t *testing.T) {
	for _, mode := range []Mode{Prototype, Revised} {
		cell := NewCell(CellConfig{Mode: mode, Costs: &CostConfig{AuthCPU: 40 * time.Millisecond}})
		s := cell.Servers[0]
		err := cell.Do(func(p *sim.Proc) error {
			admin, err := cell.Admin(p, 0) // hello and proof: two messages served
			if err != nil {
				return err
			}
			return admin.MkdirAll(p, "/usr") // a served call priced at zero
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.CPU.BusyTime() != 80*time.Millisecond || s.CPU.Uses() != 2 || s.Disk.Uses() != 0 {
			t.Errorf("%v: cpu busy %v in %d uses, disk %d uses; want 80ms in 2, and 0",
				mode, s.CPU.BusyTime(), s.CPU.Uses(), s.Disk.Uses())
		}

		cell = NewCell(CellConfig{Mode: mode, Costs: &CostConfig{}})
		s = cell.Servers[0]
		err = cell.Do(func(p *sim.Proc) error {
			admin, err := cell.Admin(p, 0)
			if err != nil {
				return err
			}
			return admin.MkdirAll(p, "/usr")
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.CPU.Uses() != 0 || s.Disk.Uses() != 0 {
			t.Errorf("%v: a zero table used the cpu %d times and the disk %d", mode, s.CPU.Uses(), s.Disk.Uses())
		}
	}
}

// Property: no bill prices a call below zero, for any op and any payload
// size.
func TestQuickCostsNonNegative(t *testing.T) {
	costs := DefaultCosts()
	bills := []*bill{{c: costs, mode: Prototype}, {c: costs, mode: Revised}, {c: costs, page: true}}
	f := func(op uint16, body []byte, bulkLen uint16) bool {
		req := rpc.Request{Op: rpc.Op(op), Body: body, Bulk: make([]byte, bulkLen)}
		resp := rpc.Response{Bulk: make([]byte, bulkLen/2)}
		for _, b := range bills {
			if cpu, disk := b.price(req, resp); cpu < 0 || disk < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
