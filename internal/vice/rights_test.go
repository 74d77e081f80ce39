package vice

import (
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
)

// rightsFixture is a volume with two directories whose access lists grant
// one user exactly what a test case says and nothing else: d (holding file f
// and empty directory sub) and e. Requests address them by FID, as revised
// Venus does, so no right on any ancestor is involved.
type rightsFixture struct {
	c                  *cell
	d, e, f, sub       proto.FID
	dVersion, fVersion uint64
}

const rightsUser = "howard"

func newRightsFixture(t *testing.T, onD, onE prot.Right) *rightsFixture {
	t.Helper()
	c := newCell(t, Revised, 1)
	c.mkVolume(t, "u", "/u", "satya", 0)
	c.mkdirAll(t, "/u/d/sub")
	c.mkdirAll(t, "/u/e")
	c.store(t, "operator", "/u/d/f", []byte("contents"))
	for dir, rights := range map[string]prot.Right{"/u/d": onD, "/u/e": onE} {
		acl := prot.NewACL()
		if rights != prot.RightsNone {
			acl.Grant(rightsUser, rights)
		}
		mustOK(t, c.call("operator", 0, proto.OpSetACL,
			proto.Marshal(proto.ACLArgs{Dir: pathRef(dir), ACL: proto.ACLEncode(acl)}), nil))
	}
	status := func(path string) proto.Status {
		resp := mustOK(t, c.call("operator", 0, proto.OpFetchStatus,
			proto.Marshal(proto.StatusArgs{Ref: pathRef(path)}), nil))
		st, err := proto.Unmarshal(resp.Body, proto.DecodeStatus)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	d, f := status("/u/d"), status("/u/d/f")
	return &rightsFixture{
		c: c, d: d.FID, dVersion: d.Version, f: f.FID, fVersion: f.Version,
		e: status("/u/e").FID, sub: status("/u/d/sub").FID,
	}
}

func fidRef(fid proto.FID) proto.Ref { return proto.Ref{FID: fid} }

// TestEveryOpNeedsExactlyItsRight pins the one table the prologue enforces:
// for every file-system operation, called at the dispatcher with FIDs, a
// caller holding every right except the one the operation needs is refused
// with ErrAccess, and a caller holding only that right is admitted. A wrong
// right in one handler's prologue call fails that row by name.
func TestEveryOpNeedsExactlyItsRight(t *testing.T) {
	someACL := prot.NewACL()
	someACL.Grant("satya", prot.RightsAll)
	rows := []struct {
		name string
		op   uint16
		// onD and onE are the rights the operation needs on each directory
		// (RightsNone: the directory takes no part).
		onD, onE prot.Right
		body     func(fx *rightsFixture) []byte
		bulk     []byte
	}{
		{"fetch file", proto.OpFetch, prot.RightRead, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.FetchArgs{Ref: fidRef(fx.f)})
		}, nil},
		{"fetch directory", proto.OpFetch, prot.RightLookup, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.FetchArgs{Ref: fidRef(fx.d)})
		}, nil},
		{"store", proto.OpStore, prot.RightWrite, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.StoreArgs{Ref: fidRef(fx.f)})
		}, []byte("new contents")},
		{"fetch status", proto.OpFetchStatus, prot.RightLookup, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.StatusArgs{Ref: fidRef(fx.f)})
		}, nil},
		{"set status", proto.OpSetStatus, prot.RightWrite, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.SetStatusArgs{Ref: fidRef(fx.f), SetMode: true, Mode: 0o600})
		}, nil},
		{"test valid file", proto.OpTestValid, prot.RightRead, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.TestValidArgs{Ref: fidRef(fx.f), Version: fx.fVersion})
		}, nil},
		{"test valid directory", proto.OpTestValid, prot.RightLookup, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.TestValidArgs{Ref: fidRef(fx.d), Version: fx.dVersion})
		}, nil},
		{"create", proto.OpCreate, prot.RightInsert, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.NameArgs{Dir: fidRef(fx.d), Name: "new", Mode: 0o644})
		}, nil},
		{"make directory", proto.OpMakeDir, prot.RightInsert, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.NameArgs{Dir: fidRef(fx.d), Name: "newdir", Mode: 0o755})
		}, nil},
		{"remove", proto.OpRemove, prot.RightDelete, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.NameArgs{Dir: fidRef(fx.d), Name: "f"})
		}, nil},
		{"remove directory", proto.OpRemoveDir, prot.RightDelete, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.NameArgs{Dir: fidRef(fx.d), Name: "sub"})
		}, nil},
		{"rename", proto.OpRename, prot.RightDelete, prot.RightInsert, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.RenameArgs{FromDir: fidRef(fx.d), FromName: "f", ToDir: fidRef(fx.e), ToName: "g"})
		}, nil},
		{"symlink", proto.OpSymlink, prot.RightInsert, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.SymlinkArgs{Dir: fidRef(fx.d), Name: "sym", Target: "/u/e"})
		}, nil},
		{"link", proto.OpLink, prot.RightInsert, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.LinkArgs{Dir: fidRef(fx.d), Name: "hard", Target: fidRef(fx.f)})
		}, nil},
		{"set access list", proto.OpSetACL, prot.RightAdmin, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.ACLArgs{Dir: fidRef(fx.d), ACL: proto.ACLEncode(someACL)})
		}, nil},
		{"get access list", proto.OpGetACL, prot.RightLookup, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.ACLArgs{Dir: fidRef(fx.d)})
		}, nil},
		{"set lock", proto.OpSetLock, prot.RightLock, 0, func(fx *rightsFixture) []byte {
			return proto.Marshal(proto.LockArgs{Ref: fidRef(fx.f), Exclusive: true})
		}, nil},
	}
	// ReleaseLock is absent by design: it checks no access list — only the
	// holder can release, and the lock table knows who that is.

	call := func(fx *rightsFixture, op uint16, body, bulk []byte) rpc.Response {
		return fx.c.call(rightsUser, 0, op, body, bulk)
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			// Every right but the needed one, on one directory at a time.
			if row.onD != 0 {
				fx := newRightsFixture(t, prot.RightsAll&^row.onD, prot.RightsAll)
				wantCode(t, call(fx, row.op, row.body(fx), row.bulk), proto.CodeAccess)
			}
			if row.onE != 0 {
				fx := newRightsFixture(t, prot.RightsAll, prot.RightsAll&^row.onE)
				wantCode(t, call(fx, row.op, row.body(fx), row.bulk), proto.CodeAccess)
			}
			// Only the needed rights.
			fx := newRightsFixture(t, row.onD, row.onE)
			mustOK(t, call(fx, row.op, row.body(fx), row.bulk))
		})
	}

	// The bulk form of TestValid runs the same check per item, and reports a
	// refusal as Valid=false rather than failing the batch.
	t.Run("bulk test valid", func(t *testing.T) {
		for _, tc := range []struct {
			onD   prot.Right
			valid [2]bool // file, directory
		}{
			{prot.RightRead, [2]bool{true, false}},
			{prot.RightLookup, [2]bool{false, true}},
			{prot.RightsAll &^ (prot.RightRead | prot.RightLookup), [2]bool{false, false}},
		} {
			fx := newRightsFixture(t, tc.onD, 0)
			resp := mustOK(t, call(fx, proto.OpBulkTestValid, proto.Marshal(proto.BulkTestValidArgs{Items: []proto.TestValidArgs{
				{Ref: fidRef(fx.f), Version: fx.fVersion},
				{Ref: fidRef(fx.d), Version: fx.dVersion},
			}}), nil))
			reply, err := proto.Unmarshal(resp.Body, proto.DecodeBulkTestValidReply)
			if err != nil || len(reply.Items) != 2 {
				t.Fatalf("bulk reply: %v, %d items", err, len(reply.Items))
			}
			if got := [2]bool{reply.Items[0].Valid, reply.Items[1].Valid}; got != tc.valid {
				t.Fatalf("holding %v: valid (file, directory) = %v, want %v", tc.onD, got, tc.valid)
			}
		}
	})
}
