package itcfs_test

import (
	"errors"
	"fmt"
	"time"

	"itcfs"
	"itcfs/internal/baseline"
	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/virtue"
)

// The paper's user stories, one Example each; `go test -run '^Example' -v .`
// runs them and checks what they print. An Example panics on an error its
// story does not expect.

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Quickstart: build a one-cluster cell, provision a user, and share files
// between two workstations through the Vice shared name space.
func Example_quickstart() {
	// A cell is a complete installation: cluster network, Vice servers,
	// replicated location and protection databases, a root volume.
	cell := itcfs.NewCell(itcfs.CellConfig{
		Mode:     itcfs.Revised, // callbacks, FIDs, client-side pathname walks
		Clusters: 1,
	})
	server := cell.Servers[0].Endpoint

	// Provision a user: an entry in the protection database plus a home
	// volume mounted at /usr/satya in the shared space.
	cell.Run(func(p *sim.Proc) {
		admin, err := cell.Admin(p, 0)
		must(err)
		must(admin.NewUser(p, "satya", "secret", 10<<20))
	})

	// Two workstations. Each has its own local disk; the shared space
	// appears under /vice on both.
	office := cell.AddWorkstation(0, "office")
	home := cell.AddWorkstation(0, "home")

	cell.Run(func(p *sim.Proc) {
		must(office.Login(p, "satya", "secret"))
		must(home.Login(p, "satya", "secret"))

		// Write at the office...
		must(office.FS.WriteFile(p, "/vice/usr/satya/paper.mss",
			[]byte("Caching of entire files at workstations is a key element in this design.")))
		fmt.Printf("[%v] office: wrote /vice/usr/satya/paper.mss\n", p.Now())

		// ...and read at home. Venus fetches the whole file into the home
		// workstation's cache; subsequent reads are purely local.
		data, err := home.FS.ReadFile(p, "/vice/usr/satya/paper.mss")
		must(err)
		fmt.Printf("[%v] home:   read %d bytes: %q\n", p.Now(), len(data), data)

		home.Venus.ResetStats()
		calls := server.CallsTotal()
		for i := 0; i < 3; i++ {
			_, err := home.FS.ReadFile(p, "/vice/usr/satya/paper.mss")
			must(err)
		}
		st := home.Venus.Stats()
		fmt.Printf("[%v] home:   3 re-reads: %d cache hits, %d fetches — no server traffic\n",
			p.Now(), st.Hits, st.Fetches)
		fmt.Printf("server calls during the 3 re-reads: %d\n", server.CallsTotal()-calls)

		// Local files never touch Vice.
		calls = server.CallsTotal()
		must(home.FS.Mkdir(p, "/tmp", 0o777))
		must(home.FS.WriteFile(p, "/tmp/scratch", []byte("workstation-private")))
		fmt.Printf("[%v] home:   /tmp/scratch stays on the local disk\n", p.Now())
		fmt.Printf("server calls for /tmp/scratch: %d\n", server.CallsTotal()-calls)
	})

	fmt.Printf("\nserver handled %d calls in %v of virtual time\n", server.CallsTotal(), cell.Now())
	// Output:
	// [15m10.7318832s] office: wrote /vice/usr/satya/paper.mss
	// [15m18.7711624s] home:   read 72 bytes: "Caching of entire files at workstations is a key element in this design."
	// [15m18.7711624s] home:   3 re-reads: 3 cache hits, 0 fetches — no server traffic
	// server calls during the 3 re-reads: 0
	// [15m18.7711624s] home:   /tmp/scratch stays on the local disk
	// server calls for /tmp/scratch: 0
	//
	// server handled 18 calls in 30m16.7752696s of virtual time
}

// Mobility: the paper's central user story (§2.2, §3.2). A student works at
// a dormitory workstation in one cluster, then sits down at a library
// workstation in another cluster. Every file is reachable unchanged; the
// only observable difference is the cache warm-up at the new workstation
// and slightly slower cross-cluster validation.
func Example_mobility() {
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Revised, Clusters: 2})

	cell.Run(func(p *sim.Proc) {
		admin, err := cell.Admin(p, 0)
		must(err)
		// The student's volume is placed on the dorm cluster's server —
		// custodian assignment localizes the common case (§3.1).
		_, err = admin.NewUserAt(p, "student", "pw", 0, cell.Servers[1].Vice.Name())
		must(err)
	})

	dorm := cell.AddWorkstation(1, "dorm-ws")
	library := cell.AddWorkstation(0, "library-ws")

	timeRead := func(p *sim.Proc, ws *itcfs.Workstation, path string) time.Duration {
		t0 := p.Now()
		_, err := ws.FS.ReadFile(p, path)
		must(err)
		return p.Now().Sub(t0)
	}

	cell.Run(func(p *sim.Proc) {
		must(dorm.Login(p, "student", "pw"))
		for i := 0; i < 5; i++ {
			path := fmt.Sprintf("/vice/usr/student/essay%d.txt", i)
			must(dorm.FS.WriteFile(p, path, make([]byte, 6<<10)))
		}
		fmt.Println("dorm: wrote 5 essays to /vice/usr/student (custodian: dorm cluster server)")
		warm := timeRead(p, dorm, "/vice/usr/student/essay0.txt")
		fmt.Printf("dorm: warm read takes %v (pure cache hit)\n", warm)

		// The student walks to the library — a different cluster, a
		// workstation they have never used.
		must(library.Login(p, "student", "pw"))
		cold := timeRead(p, library, "/vice/usr/student/essay0.txt")
		fmt.Printf("library: first read takes %v (cache warm-up, crosses the backbone)\n", cold)
		warmAway := timeRead(p, library, "/vice/usr/student/essay0.txt")
		fmt.Printf("library: second read takes %v (cached locally now)\n", warmAway)

		// Edits made at the library are immediately visible back at the
		// dorm: the store on close reaches the custodian, which breaks the
		// dorm workstation's callback.
		must(library.FS.WriteFile(p, "/vice/usr/student/essay0.txt", []byte("revised at the library")))
		data, err := dorm.FS.ReadFile(p, "/vice/usr/student/essay0.txt")
		must(err)
		fmt.Printf("dorm: re-read sees %q\n", data)
		fmt.Printf("dorm: venus recorded %d callback break(s)\n", dorm.Venus.Stats().CallbackBreaks)
	})

	fmt.Printf("\nbackbone carried %d cross-cluster frames\n", cell.Net.CrossClusterFrames())
	// Output:
	// dorm: wrote 5 essays to /vice/usr/student (custodian: dorm cluster server)
	// dorm: warm read takes 0s (pure cache hit)
	// library: first read takes 8.3242952s (cache warm-up, crosses the backbone)
	// library: second read takes 0s (cached locally now)
	// dorm: re-read sees "revised at the library"
	// dorm: venus recorded 1 callback break(s)
	//
	// backbone carried 36 cross-cluster frames
}

// Security: the mechanisms of §3.4 in action. Workstations are never
// trusted: every connection starts with a mutual-authentication handshake
// keyed by the user's password-derived key, and everything after travels
// encrypted. Access lists with groups govern sharing; a single negative
// entry revokes instantly without touching the replicated group database.
func Example_security() {
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Prototype, Clusters: 1})
	users := []string{"satya", "howard", "mallory"}

	cell.Run(func(p *sim.Proc) {
		admin, err := cell.Admin(p, 0)
		must(err)
		for _, u := range users {
			must(admin.NewUser(p, u, "pw-"+u, 0))
		}
		// A project group; groups may contain groups (Grapevine-style).
		must(admin.Protect(p, prot.Mutation{Kind: prot.MutAddGroup, Name: "itc-project", Owner: "satya"}))
		for _, m := range users {
			must(admin.Protect(p, prot.Mutation{Kind: prot.MutAddMember, Name: "itc-project", Member: m}))
		}
	})

	ws := map[string]*itcfs.Workstation{}
	for _, u := range users {
		ws[u] = cell.AddWorkstation(0, "ws-"+u)
	}

	cell.Run(func(p *sim.Proc) {
		// 1. Authentication: a wrong password never connects. The password
		// itself never crosses the (untrusted, encrypted) network — only a
		// challenge handshake keyed by its derived key.
		err := ws["mallory"].Login(p, "satya", "guessed-password")
		if err == nil {
			panic("impersonation succeeded")
		}
		fmt.Printf("1. login as satya with a wrong password: rejected (%v)\n", err)
		for _, u := range users {
			must(ws[u].Login(p, u, "pw-"+u))
		}

		// 2. Group-based sharing via access lists. mallory, in the group
		// too, reads the design into the cache at mallory's station.
		acl := prot.NewACL()
		acl.Grant("satya", prot.RightsAll)
		acl.Grant("itc-project", prot.RightLookup|prot.RightRead|prot.RightWrite|prot.RightInsert|prot.RightLock)
		must(ws["satya"].Venus.SetACL(p, "/usr/satya", proto.ACLEncode(acl)))
		must(ws["satya"].FS.WriteFile(p, "/vice/usr/satya/design.mss", []byte("v1")))
		for _, u := range []string{"howard", "mallory"} {
			_, err := ws[u].FS.ReadFile(p, "/vice/usr/satya/design.mss")
			must(err)
		}
		fmt.Println("2. howard (itc-project) reads satya's design: allowed by the group grant")

		// 3. Rapid revocation: mallory is discovered to be untrustworthy.
		// Removing mallory from every group means updating the replicated
		// protection database; a negative entry on this access list takes
		// effect immediately at one site (§3.4), cached copy or not.
		acl.Deny("mallory", prot.RightsAll)
		must(ws["satya"].Venus.SetACL(p, "/usr/satya", proto.ACLEncode(acl)))
		if _, err := ws["mallory"].FS.ReadFile(p, "/vice/usr/satya/design.mss"); !errors.Is(err, itcfs.ErrAccess) {
			panic(fmt.Sprintf("expected access denial, got %v", err))
		}
		fmt.Println("3. mallory: denied by a negative right, despite still being in itc-project")

		// 4. The group still works for everyone else.
		must(ws["howard"].FS.WriteFile(p, "/vice/usr/satya/design.mss", []byte("v2 by howard")))
		data, err := ws["satya"].FS.ReadFile(p, "/vice/usr/satya/design.mss")
		must(err)
		fmt.Printf("4. collaboration continues: satya reads %q\n", data)

		// 5. Advisory locking (§3.6) serializes cooperating writers.
		must(ws["satya"].Venus.Lock(p, "/usr/satya/design.mss", true))
		err = ws["howard"].Venus.Lock(p, "/usr/satya/design.mss", true)
		fmt.Printf("5. howard's write-lock while satya holds one: %v\n", err)
		must(ws["satya"].Venus.Unlock(p, "/usr/satya/design.mss"))
	})
	// Output:
	// 1. login as satya with a wrong password: rejected (itcfs: login satya: rpc: peer unreachable: handshake timeout to node 0)
	// 2. howard (itc-project) reads satya's design: allowed by the group grant
	// 3. mallory: denied by a negative right, despite still being in itc-project
	// 4. collaboration continues: satya reads "v2 by howard"
	// 5. howard's write-lock while satya holds one: vice: file is locked: write-locked by satya
}

// Release: the orderly release of system software with volumes (§3.2,
// §5.3). System binaries live in a read-write volume; each release is an
// atomic, copy-on-write Clone — a frozen read-only snapshot — replicated to
// every cluster server so workstations fetch from their nearest replica.
// Multiple coexisting versions are simply multiple clones.
func Example_release() {
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Revised, Clusters: 2})

	cell.Run(func(p *sim.Proc) {
		admin, err := cell.Admin(p, 0)
		must(err)
		must(admin.MkdirAll(p, "/unix"))
		binVol, err := admin.CreateVolume(p, "sys.bin", "/unix/bin", "operator", 0)
		must(err)
		must(admin.NewUser(p, "student", "pw", 0))

		// The operations staff installs version 1 of the tools.
		op := cell.AddWorkstation(0, "op-console")
		must(op.Login(p, "operator", "operator-password"))
		for _, tool := range []string{"cc", "ld", "emacs"} {
			must(op.FS.WriteFile(p, "/vice/unix/bin/"+tool, []byte(tool+" v1")))
		}
		fmt.Println("installed cc, ld, emacs (v1) into the read-write volume /unix/bin")

		// Release v1: one atomic clone, mounted at a versioned path and
		// replicated to the second cluster's server.
		cloneID, err := admin.CloneVolume(p, binVol, "/unix/bin-v1", cell.Servers[1].Vice.Name())
		must(err)
		fmt.Printf("released /unix/bin-v1 (read-only clone, volume %d, replica on %s)\n",
			cloneID, cell.Servers[1].Vice.Name())

		// Development continues on the read-write volume.
		must(op.FS.WriteFile(p, "/vice/unix/bin/cc", []byte("cc v2 (experimental)")))
		fmt.Println("development continues: /unix/bin/cc is now v2")
	})

	// A student in cluster 1 uses the released version. The fetch comes
	// from the replica on the student's own cluster server: no backbone
	// crossing for the data ("localize if possible", §4).
	student := cell.AddWorkstation(1, "dorm-ws")
	cell.Run(func(p *sim.Proc) {
		must(student.Login(p, "student", "pw"))
		frames0 := cell.Net.CrossClusterFrames()
		data, err := student.FS.ReadFile(p, "/vice/unix/bin-v1/cc")
		must(err)
		crossed := cell.Net.CrossClusterFrames() - frames0
		fmt.Printf("student runs the released compiler: %q (fetch crossed the backbone %d times)\n",
			data, crossed)

		// The release is immutable: even the operator cannot overwrite it.
		op2 := cell.AddWorkstation(1, "op-2")
		must(op2.Login(p, "operator", "operator-password"))
		err = op2.FS.WriteFile(p, "/vice/unix/bin-v1/cc", []byte("tamper"))
		fmt.Printf("attempt to modify the released clone: %v\n", err)

		// Both versions coexist; the experimental one is separate.
		dev, err := student.FS.ReadFile(p, "/vice/unix/bin/cc")
		must(err)
		fmt.Printf("meanwhile /unix/bin/cc (read-write volume) serves: %q\n", dev)
	})
	// Output:
	// installed cc, ld, emacs (v1) into the read-write volume /unix/bin
	// released /unix/bin-v1 (read-only clone, volume 4, replica on server1)
	// development continues: /unix/bin/cc is now v2
	// student runs the released compiler: "cc v1" (fetch crossed the backbone 4 times)
	// attempt to modify the released clone: vice: read-only volume
	// meanwhile /unix/bin/cc (read-write volume) serves: "cc v2 (experimental)"
}

// Surrogate: §3.3's answer for machines that cannot run Venus. A
// low-function workstation (the paper names IBM PCs and the Apple
// Macintosh) speaks a simple open/read-page/write-page protocol to a
// Surrogate server running on a full Virtue workstation — and is thereby
// "transparently accessing Vice files on account of a Virtue workstation's
// transparent Vice attachment."
func Example_surrogate() {
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Revised, Clusters: 1})

	cell.Run(func(p *sim.Proc) {
		admin, err := cell.Admin(p, 0)
		must(err)
		must(admin.NewUser(p, "satya", "pw", 0))
	})

	// A full Virtue workstation hosts the surrogate.
	host := cell.AddWorkstation(0, "surrogate-host")
	var sur *virtue.Surrogate
	cell.Run(func(p *sim.Proc) {
		must(host.Login(p, "satya", "pw"))
		sur = virtue.NewSurrogate(host.FS)
	})

	// The "PC" is attached to the surrogate host over a cheap link; here it
	// dispatches page-protocol requests straight into the surrogate. (The
	// paper imagined a machine with interfaces to both the campus LAN and
	// a cheap PC network.)
	pc := baseline.NewClient(pcLink{sur: sur})

	cell.Run(func(p *sim.Proc) {
		// The PC writes a spreadsheet into the shared name space...
		must(pc.WriteFile(p, "/vice/usr/satya/budget.wks", []byte("LOTUS 1-2-3 worksheet: budget figures for the ITC")))
		fmt.Println("PC: wrote /vice/usr/satya/budget.wks through the surrogate")

		// ...which is a perfectly ordinary Vice file: the host workstation
		// (or any other) sees it at once.
		got, err := host.FS.ReadFile(p, "/vice/usr/satya/budget.wks")
		must(err)
		fmt.Printf("Virtue host reads it back: %q\n", got)

		// And the PC reads shared files other workstations produced, page
		// by page, with Venus caching doing its work underneath.
		must(host.FS.WriteFile(p, "/vice/usr/satya/memo.txt", []byte("whole-file caching serves the PC too")))
		memo, err := pc.ReadFile(p, "/vice/usr/satya/memo.txt")
		must(err)
		fmt.Printf("PC reads the memo: %q\n", memo)

		opens, reads, writes := sur.OpCounts()
		fmt.Printf("surrogate served %d opens, %d page reads, %d page writes\n", opens, reads, writes)
	})
	// Output:
	// PC: wrote /vice/usr/satya/budget.wks through the surrogate
	// Virtue host reads it back: "LOTUS 1-2-3 worksheet: budget figures for the ITC"
	// PC reads the memo: "whole-file caching serves the PC too"
	// surrogate served 2 opens, 1 page reads, 1 page writes
}

// pcLink carries page-protocol calls from the PC into the surrogate.
type pcLink struct{ sur *virtue.Surrogate }

func (l pcLink) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	return l.sur.Dispatcher().Dispatch(rpc.Ctx{User: "pc", Proc: p}, req), nil
}
