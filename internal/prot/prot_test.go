package prot

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"itcfs/internal/secure"
	"itcfs/internal/wire"
)

func mustApply(t *testing.T, db *DB, m Mutation) {
	t.Helper()
	if err := db.Apply(m); err != nil {
		t.Fatalf("Apply(%+v): %v", m, err)
	}
}

func addUser(t *testing.T, db *DB, name string) {
	t.Helper()
	mustApply(t, db, Mutation{Kind: MutAddUser, Name: name, Key: secure.DeriveKey(name, "pw")})
}

func addGroup(t *testing.T, db *DB, name, owner string) {
	t.Helper()
	mustApply(t, db, Mutation{Kind: MutAddGroup, Name: name, Owner: owner})
}

func addMember(t *testing.T, db *DB, group, member string) {
	t.Helper()
	mustApply(t, db, Mutation{Kind: MutAddMember, Name: group, Member: member})
}

func TestRightsStringAndParse(t *testing.T) {
	cases := []struct {
		r Right
		s string
	}{
		{RightRead | RightLookup, "lr"},
		{RightsAll, "lrwidka"},
		{RightsNone, "none"},
		{RightAdmin, "a"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.s {
			t.Errorf("String(%d) = %q, want %q", c.r, got, c.s)
		}
		parsed, err := ParseRights(c.s)
		if err != nil || parsed != c.r {
			t.Errorf("ParseRights(%q) = %v, %v", c.s, parsed, err)
		}
	}
	if _, err := ParseRights("rz"); err == nil {
		t.Error("ParseRights accepted unknown letter")
	}
	if r, err := ParseRights("all"); err != nil || r != RightsAll {
		t.Error("ParseRights(all) failed")
	}
}

func TestCPSDirectAndRecursive(t *testing.T) {
	db := NewDB()
	addUser(t, db, "satya")
	addGroup(t, db, "faculty", "admin")
	addGroup(t, db, "cs-dept", "admin")
	addGroup(t, db, "campus", "admin")
	addMember(t, db, "faculty", "satya")
	addMember(t, db, "cs-dept", "faculty") // recursive: faculty ⊂ cs-dept
	addMember(t, db, "campus", "cs-dept")  // and cs-dept ⊂ campus

	cps := db.CPS("satya")
	want := map[string]bool{"satya": true, AnyUser: true, "faculty": true, "cs-dept": true, "campus": true}
	if len(cps) != len(want) {
		t.Fatalf("CPS = %v", cps)
	}
	for _, n := range cps {
		if !want[n] {
			t.Fatalf("unexpected CPS member %q in %v", n, cps)
		}
	}
	// An unrelated user gets only itself and AnyUser.
	addUser(t, db, "visitor")
	cps = db.CPS("visitor")
	if len(cps) != 2 {
		t.Fatalf("visitor CPS = %v", cps)
	}
}

func TestACLEffectiveUnionMinusNegative(t *testing.T) {
	db := NewDB()
	addUser(t, db, "u")
	addGroup(t, db, "g1", "")
	addGroup(t, db, "g2", "")
	addMember(t, db, "g1", "u")
	addMember(t, db, "g2", "u")

	acl := NewACL()
	acl.Grant("g1", RightRead|RightLookup)
	acl.Grant("g2", RightWrite)
	cps := db.CPS("u")
	if got := acl.Effective(cps); got != RightRead|RightLookup|RightWrite {
		t.Fatalf("Effective = %v", got)
	}
	// Negative rights subtract from the union (§3.4).
	acl.Deny("u", RightWrite)
	if got := acl.Effective(cps); got != RightRead|RightLookup {
		t.Fatalf("after Deny, Effective = %v", got)
	}
	if acl.Check(cps, RightWrite) {
		t.Fatal("Check passed despite negative right")
	}
	if !acl.Check(cps, RightRead|RightLookup) {
		t.Fatal("Check failed for granted rights")
	}
}

func TestNegativeRightsRapidRevocation(t *testing.T) {
	// The scenario of §3.4: a user reachable through many groups is locked
	// out of one object by a single negative entry, without touching the
	// group database.
	db := NewDB()
	addUser(t, db, "mallory")
	for i := 0; i < 10; i++ {
		g := fmt.Sprintf("g%d", i)
		addGroup(t, db, g, "")
		addMember(t, db, g, "mallory")
	}
	acl := NewACL()
	for i := 0; i < 10; i++ {
		acl.Grant(fmt.Sprintf("g%d", i), RightsAll)
	}
	cps := db.CPS("mallory")
	if !acl.Check(cps, RightsAll) {
		t.Fatal("setup: mallory should have all rights")
	}
	versionBefore := db.Version()
	acl.Deny("mallory", RightsAll)
	if acl.Effective(cps) != RightsNone {
		t.Fatal("negative entry did not revoke")
	}
	if db.Version() != versionBefore {
		t.Fatal("revocation touched the replicated database")
	}
}

func TestAnyUserGrantsPublicAccess(t *testing.T) {
	db := NewDB()
	addUser(t, db, "anyone")
	acl := NewACL()
	acl.Grant(AnyUser, RightLookup|RightRead)
	if !acl.Check(db.CPS("anyone"), RightRead) {
		t.Fatal("AnyUser grant not effective")
	}
}

func TestACLEncodeDecode(t *testing.T) {
	acl := NewACL()
	acl.Grant("satya", RightsAll)
	acl.Grant("faculty", RightRead|RightLookup)
	acl.Deny("mallory", RightsAll)
	var e wire.Encoder
	acl.Encode(&e)
	d := wire.NewDecoder(e.Buf())
	got := DecodeACL(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Positive["satya"] != RightsAll || got.Positive["faculty"] != RightRead|RightLookup {
		t.Fatalf("positive = %v", got.Positive)
	}
	if got.Negative["mallory"] != RightsAll {
		t.Fatalf("negative = %v", got.Negative)
	}
}

func TestACLGrantZeroRemoves(t *testing.T) {
	acl := NewACL()
	acl.Grant("u", RightRead)
	acl.Grant("u", 0)
	if len(acl.Positive) != 0 {
		t.Fatal("zero grant did not remove entry")
	}
	acl.Deny("u", RightRead)
	acl.Deny("u", 0)
	if len(acl.Negative) != 0 {
		t.Fatal("zero deny did not remove entry")
	}
}

func TestMutationErrors(t *testing.T) {
	db := NewDB()
	addUser(t, db, "u")
	addGroup(t, db, "g", "u")

	cases := []struct {
		m    Mutation
		want error
	}{
		{Mutation{Kind: MutAddUser, Name: "u"}, ErrExists},
		{Mutation{Kind: MutAddUser, Name: "g"}, ErrExists},
		{Mutation{Kind: MutAddUser, Name: "bad name"}, ErrBadName},
		{Mutation{Kind: MutAddUser, Name: AnyUser}, ErrBadName},
		{Mutation{Kind: MutRemoveUser, Name: "ghost"}, ErrNoSuchUser},
		{Mutation{Kind: MutSetKey, Name: "ghost"}, ErrNoSuchUser},
		{Mutation{Kind: MutAddGroup, Name: "g"}, ErrExists},
		{Mutation{Kind: MutAddGroup, Name: "u"}, ErrExists},
		{Mutation{Kind: MutRemoveGroup, Name: "ghost"}, ErrNoSuchGroup},
		{Mutation{Kind: MutAddMember, Name: "ghost", Member: "u"}, ErrNoSuchGroup},
		{Mutation{Kind: MutAddMember, Name: "g", Member: "ghost"}, ErrNoSuchUser},
		{Mutation{Kind: MutRemoveMember, Name: "g", Member: "u"}, ErrNoSuchUser},
	}
	for _, c := range cases {
		if err := db.Apply(c.m); !errors.Is(err, c.want) {
			t.Errorf("Apply(%+v) = %v, want %v", c.m, err, c.want)
		}
	}
}

func TestRemoveGroupRequiresEmpty(t *testing.T) {
	db := NewDB()
	addUser(t, db, "u")
	addGroup(t, db, "g", "")
	addMember(t, db, "g", "u")
	if err := db.Apply(Mutation{Kind: MutRemoveGroup, Name: "g"}); !errors.Is(err, ErrInUse) {
		t.Fatalf("err = %v, want ErrInUse", err)
	}
	mustApply(t, db, Mutation{Kind: MutRemoveMember, Name: "g", Member: "u"})
	mustApply(t, db, Mutation{Kind: MutRemoveGroup, Name: "g"})
}

func TestRemoveUserScrubsMemberships(t *testing.T) {
	db := NewDB()
	addUser(t, db, "u")
	addGroup(t, db, "g", "")
	addMember(t, db, "g", "u")
	mustApply(t, db, Mutation{Kind: MutRemoveUser, Name: "u"})
	members, err := db.Members("g")
	if err != nil || len(members) != 0 {
		t.Fatalf("members = %v, %v", members, err)
	}
}

func TestMembershipCycleRejected(t *testing.T) {
	db := NewDB()
	addGroup(t, db, "a", "")
	addGroup(t, db, "b", "")
	addGroup(t, db, "c", "")
	addMember(t, db, "a", "b") // b ∈ a
	addMember(t, db, "b", "c") // c ∈ b
	if err := db.Apply(Mutation{Kind: MutAddMember, Name: "c", Member: "a"}); err == nil {
		t.Fatal("cycle a∈c accepted")
	}
	if err := db.Apply(Mutation{Kind: MutAddMember, Name: "a", Member: "a"}); err == nil {
		t.Fatal("self-membership accepted")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := NewDB()
	addUser(t, db, "satya")
	addUser(t, db, "howard")
	addGroup(t, db, "itc", "satya")
	addMember(t, db, "itc", "satya")
	addMember(t, db, "itc", "howard")

	replica := NewDB()
	if err := replica.LoadSnapshot(db.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if replica.Version() != db.Version() {
		t.Fatalf("version %d != %d", replica.Version(), db.Version())
	}
	if !bytes.Equal(replica.Snapshot(), db.Snapshot()) {
		t.Fatal("the replica's snapshot differs from the one it loaded")
	}
	if fmt.Sprint(replica.CPS("satya")) != fmt.Sprint(db.CPS("satya")) {
		t.Fatal("CPS differs on replica")
	}
	k1, _ := db.LookupKey("satya")
	k2, ok := replica.LookupKey("satya")
	if !ok || k1 != k2 {
		t.Fatal("keys differ on replica")
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	db := NewDB()
	if err := db.LoadSnapshot([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestMutationEncodeDecode(t *testing.T) {
	m := Mutation{Kind: MutAddUser, Name: "u", Member: "g", Key: secure.DeriveKey("u", "p"), Owner: "o"}
	var e wire.Encoder
	m.Encode(&e)
	d := wire.NewDecoder(e.Buf())
	got := DecodeMutation(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip: %+v != %+v", got, m)
	}
}

// Property: replicas that apply the same mutation stream converge to equal
// snapshots, regardless of starting from snapshot or from scratch.
func TestQuickReplicaConvergence(t *testing.T) {
	f := func(ops []struct {
		Kind  uint8
		A, B  uint8
		IsGrp bool
	}) bool {
		primary, replica := NewDB(), NewDB()
		for _, op := range ops {
			name := fmt.Sprintf("n%d", op.A%8)
			member := fmt.Sprintf("n%d", op.B%8)
			var m Mutation
			switch op.Kind % 5 {
			case 0:
				m = Mutation{Kind: MutAddUser, Name: name}
			case 1:
				m = Mutation{Kind: MutAddGroup, Name: "g" + name}
			case 2:
				m = Mutation{Kind: MutAddMember, Name: "g" + name, Member: member}
			case 3:
				m = Mutation{Kind: MutRemoveMember, Name: "g" + name, Member: member}
			case 4:
				m = Mutation{Kind: MutRemoveUser, Name: name}
			}
			err1 := primary.Apply(m)
			err2 := replica.Apply(m)
			if (err1 == nil) != (err2 == nil) {
				return false
			}
		}
		return string(primary.Snapshot()) == string(replica.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Effective never exceeds the union of positive rights, and
// denying a name present in the CPS always removes those bits.
func TestQuickNegativeRightsDominance(t *testing.T) {
	f := func(pos, neg uint8) bool {
		acl := NewACL()
		acl.Grant("u", Right(pos)&RightsAll)
		acl.Deny("u", Right(neg)&RightsAll)
		eff := acl.Effective([]string{"u"})
		return eff&(Right(neg)&RightsAll) == 0 && eff&^(Right(pos)&RightsAll) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
