// Package prot implements the protection domain of Section 3.4: Users and
// Groups (groups may recursively contain other groups, as in Grapevine), the
// Current Protection Subdomain (CPS) of a user, and access lists carrying
// both positive and Negative rights. Negative rights are the paper's rapid
// revocation mechanism: revoking via group membership requires a slow
// replicated-database update, while a negative entry on a single object's
// access list takes effect immediately.
//
// The protection database also stores each user's authentication key (the
// derived password), since the paper co-locates authentication state with
// the replicated protection database at every cluster server.
package prot

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"itcfs/internal/secure"
	"itcfs/internal/wire"
)

// Right is a bitmask of access rights on a protected object. The set
// mirrors the operations the paper protects per directory: fetching and
// storing files, creating and deleting directory entries, listing status,
// locking, and modifying the access list itself.
type Right uint8

// Rights, one bit each. Letter codes follow the conventional short form.
const (
	RightLookup Right = 1 << iota // l: list directory, examine status
	RightRead                     // r: fetch files
	RightWrite                    // w: store (overwrite) files
	RightInsert                   // i: create new directory entries
	RightDelete                   // d: delete directory entries
	RightLock                     // k: set advisory locks
	RightAdmin                    // a: modify the access list

	// RightsAll grants everything.
	RightsAll Right = 1<<7 - 1
	// RightsNone grants nothing.
	RightsNone Right = 0
)

var rightLetters = []struct {
	bit    Right
	letter byte
}{
	{RightLookup, 'l'},
	{RightRead, 'r'},
	{RightWrite, 'w'},
	{RightInsert, 'i'},
	{RightDelete, 'd'},
	{RightLock, 'k'},
	{RightAdmin, 'a'},
}

// String renders rights in the conventional "lrwidka" letter form.
func (r Right) String() string {
	if r == 0 {
		return "none"
	}
	var b strings.Builder
	for _, rl := range rightLetters {
		if r&rl.bit != 0 {
			b.WriteByte(rl.letter)
		}
	}
	return b.String()
}

// ParseRights parses the letter form ("rl", "all", "none").
func ParseRights(s string) (Right, error) {
	switch s {
	case "all":
		return RightsAll, nil
	case "none", "":
		return RightsNone, nil
	}
	var r Right
letters:
	for i := 0; i < len(s); i++ {
		for _, rl := range rightLetters {
			if s[i] == rl.letter {
				r |= rl.bit
				continue letters
			}
		}
		return 0, fmt.Errorf("prot: unknown right %q", s[i])
	}
	return r, nil
}

// AnyUser is the distinguished group every principal implicitly belongs to.
// Granting it rights makes an object public.
const AnyUser = "System:AnyUser"

// Errors surfaced by database mutation.
var (
	ErrNoSuchUser  = errors.New("prot: no such user")
	ErrNoSuchGroup = errors.New("prot: no such group")
	ErrExists      = errors.New("prot: name already exists")
	ErrInUse       = errors.New("prot: group still has members or uses")
	ErrBadName     = errors.New("prot: invalid name")
)

// ACL is an access list: positive entries grant, negative entries revoke.
// The effective rights of a user are the union of positive rights over the
// user's CPS minus the union of negative rights over the CPS (§3.4).
type ACL struct {
	Positive map[string]Right
	Negative map[string]Right
}

// NewACL returns an empty access list.
func NewACL() ACL {
	return ACL{Positive: make(map[string]Right), Negative: make(map[string]Right)}
}

// Clone deep-copies the ACL.
func (a ACL) Clone() ACL {
	c := NewACL()
	for k, v := range a.Positive {
		c.Positive[k] = v
	}
	for k, v := range a.Negative {
		c.Negative[k] = v
	}
	return c
}

// Grant sets the positive rights for name (replacing previous rights).
// Zero rights delete the entry.
func (a ACL) Grant(name string, r Right) {
	if r == 0 {
		delete(a.Positive, name)
	} else {
		a.Positive[name] = r
	}
}

// Deny sets the negative rights for name. Zero rights delete the entry.
func (a ACL) Deny(name string, r Right) {
	if r == 0 {
		delete(a.Negative, name)
	} else {
		a.Negative[name] = r
	}
}

// Effective computes the rights a CPS holds under this ACL.
func (a ACL) Effective(cps []string) Right {
	var plus, minus Right
	for _, name := range cps {
		plus |= a.Positive[name]
		minus |= a.Negative[name]
	}
	return plus &^ minus
}

// Check reports whether the CPS holds all rights in want.
func (a ACL) Check(cps []string, want Right) bool {
	return a.Effective(cps)&want == want
}

// Encode marshals the ACL (entries in sorted order, so encodings are
// deterministic and comparable).
func (a ACL) Encode(e *wire.Encoder) {
	encodeRights(e, a.Positive)
	encodeRights(e, a.Negative)
}

// encodeRights appends one side of an access list. An access list names a
// handful of users and groups, so the names are sorted in an array on the
// stack; a longer list spills to the heap.
func encodeRights(e *wire.Encoder, m map[string]Right) {
	var few [8]string
	names := few[:0]
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	e.U32(uint32(len(names)))
	for _, n := range names {
		e.String(n)
		e.U8(uint8(m[n]))
	}
}

// DecodeACL unmarshals an ACL written by Encode.
func DecodeACL(d *wire.Decoder) ACL {
	a := NewACL()
	for side := 0; side < 2; side++ {
		n := d.U32()
		m := a.Positive
		if side == 1 {
			m = a.Negative
		}
		for i := uint32(0); i < n && d.Err() == nil; i++ {
			name := d.String()
			m[name] = Right(d.U8())
		}
	}
	return a
}

// User is one principal.
type User struct {
	Name string
	Key  secure.Key // derived password, for the authentication handshake
}

// Group is a named set of users and other groups.
type Group struct {
	Name    string
	Owner   string
	Members map[string]bool // user or group names
}

// DB is one replica of the protection database. It answers CPS and key
// lookups locally (every cluster server holds a full copy, §3.4) and applies
// mutations shipped from the protection server.
type DB struct {
	mu      sync.RWMutex
	users   map[string]*User  // guarded by mu
	groups  map[string]*Group // guarded by mu
	version uint64            // guarded by mu
	// cpsCache memoizes CPS per user, dropped whole on any mutation.
	// guarded by mu
	cpsCache map[string][]string
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{users: make(map[string]*User), groups: make(map[string]*Group)}
}

// Version returns the mutation counter; replicas at equal versions that
// applied the same mutation stream are identical.
func (db *DB) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// LookupKey implements secure.KeyLookup against the replica.
func (db *DB) LookupKey(user string) (secure.Key, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	u, ok := db.users[user]
	if !ok {
		return secure.Key{}, false
	}
	return u.Key, true
}

// Users returns all user names, sorted.
func (db *DB) Users() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.users))
	for n := range db.users {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Groups returns all group names, sorted.
func (db *DB) Groups() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.groups))
	for n := range db.groups {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Members returns the direct members of a group, sorted.
func (db *DB) Members(group string) ([]string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	g, ok := db.groups[group]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchGroup, group)
	}
	out := make([]string, 0, len(g.Members))
	for m := range g.Members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out, nil
}

// CPS computes the Current Protection Subdomain of a user: the user itself,
// AnyUser, and every group reachable by (recursive) membership. The result
// is sorted. It is memoized until the next mutation — access checks run it
// on every protected server operation — so callers must not modify the
// returned slice.
func (db *DB) CPS(user string) []string {
	db.mu.RLock()
	cps, ok := db.cpsCache[user]
	db.mu.RUnlock()
	if ok {
		return cps
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if cps, ok := db.cpsCache[user]; ok {
		return cps
	}
	cps = db.cpsLocked(user)
	if db.cpsCache == nil {
		db.cpsCache = make(map[string][]string)
	}
	db.cpsCache[user] = cps
	return cps
}

//itcvet:holds mu
func (db *DB) cpsLocked(user string) []string {
	seen := map[string]bool{user: true, AnyUser: true}
	// Fixed point: a group is in the CPS if any of its members is.
	for changed := true; changed; {
		changed = false
		for gname, g := range db.groups {
			if seen[gname] {
				continue
			}
			for m := range g.Members {
				if seen[m] {
					seen[gname] = true
					changed = true
					break
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MutKind enumerates protection-database mutations.
type MutKind uint8

// Mutation kinds.
const (
	MutAddUser MutKind = iota + 1
	MutRemoveUser
	MutSetKey
	MutAddGroup
	MutRemoveGroup
	MutAddMember
	MutRemoveMember
)

// Mutation is one update to the protection database, shipped by the
// protection server to every replica.
type Mutation struct {
	Kind   MutKind
	Name   string     // user or group affected
	Member string     // for AddMember/RemoveMember
	Key    secure.Key // for AddUser/SetKey
	Owner  string     // for AddGroup
}

// Encode marshals the mutation.
func (m Mutation) Encode(e *wire.Encoder) {
	e.U8(uint8(m.Kind))
	e.String(m.Name)
	e.String(m.Member)
	e.Raw(m.Key[:])
	e.String(m.Owner)
}

// DecodeMutation unmarshals a mutation.
func DecodeMutation(d *wire.Decoder) Mutation {
	var m Mutation
	m.Kind = MutKind(d.U8())
	m.Name = d.String()
	m.Member = d.String()
	for i := range m.Key {
		m.Key[i] = d.U8()
	}
	m.Owner = d.String()
	return m
}

// Apply performs one mutation on the replica.
func (db *DB) Apply(m Mutation) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.apply(m); err != nil {
		return err
	}
	db.version++
	db.cpsCache = nil
	return nil
}

func validName(n string) bool {
	return n != "" && !strings.ContainsAny(n, " /\x00") && n != AnyUser
}

// apply performs one mutation against the in-memory state. Every caller
// (Mutate, Replay) takes the write lock first.
//
//itcvet:holds mu
func (db *DB) apply(m Mutation) error {
	switch m.Kind {
	case MutAddUser:
		if !validName(m.Name) {
			return fmt.Errorf("%w: %q", ErrBadName, m.Name)
		}
		if _, ok := db.users[m.Name]; ok {
			return fmt.Errorf("%w: user %s", ErrExists, m.Name)
		}
		if _, ok := db.groups[m.Name]; ok {
			return fmt.Errorf("%w: %s is a group", ErrExists, m.Name)
		}
		db.users[m.Name] = &User{Name: m.Name, Key: m.Key}
	case MutRemoveUser:
		if _, ok := db.users[m.Name]; !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchUser, m.Name)
		}
		delete(db.users, m.Name)
		for _, g := range db.groups {
			delete(g.Members, m.Name)
		}
	case MutSetKey:
		u, ok := db.users[m.Name]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchUser, m.Name)
		}
		u.Key = m.Key
	case MutAddGroup:
		if !validName(m.Name) {
			return fmt.Errorf("%w: %q", ErrBadName, m.Name)
		}
		if _, ok := db.groups[m.Name]; ok {
			return fmt.Errorf("%w: group %s", ErrExists, m.Name)
		}
		if _, ok := db.users[m.Name]; ok {
			return fmt.Errorf("%w: %s is a user", ErrExists, m.Name)
		}
		db.groups[m.Name] = &Group{Name: m.Name, Owner: m.Owner, Members: make(map[string]bool)}
	case MutRemoveGroup:
		g, ok := db.groups[m.Name]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchGroup, m.Name)
		}
		if len(g.Members) != 0 {
			return fmt.Errorf("%w: %s", ErrInUse, m.Name)
		}
		delete(db.groups, m.Name)
		for _, other := range db.groups {
			delete(other.Members, m.Name)
		}
	case MutAddMember:
		g, ok := db.groups[m.Name]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchGroup, m.Name)
		}
		_, isUser := db.users[m.Member]
		_, isGroup := db.groups[m.Member]
		if !isUser && !isGroup {
			return fmt.Errorf("%w: member %s", ErrNoSuchUser, m.Member)
		}
		if isGroup && db.wouldCycle(m.Name, m.Member) {
			return fmt.Errorf("prot: adding %s to %s would create a membership cycle", m.Member, m.Name)
		}
		g.Members[m.Member] = true
	case MutRemoveMember:
		g, ok := db.groups[m.Name]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchGroup, m.Name)
		}
		if !g.Members[m.Member] {
			return fmt.Errorf("%w: %s not in %s", ErrNoSuchUser, m.Member, m.Name)
		}
		delete(g.Members, m.Member)
	default:
		return fmt.Errorf("prot: unknown mutation kind %d", m.Kind)
	}
	return nil
}

// wouldCycle reports whether group contains candidate transitively already
// in the reverse direction: adding candidate to group creates a cycle iff
// group is reachable from candidate. Called from apply, under the lock.
//
//itcvet:holds mu
func (db *DB) wouldCycle(group, candidate string) bool {
	if group == candidate {
		return true
	}
	seen := map[string]bool{}
	var reach func(g string) bool
	reach = func(g string) bool {
		if g == group {
			return true
		}
		if seen[g] {
			return false
		}
		seen[g] = true
		grp, ok := db.groups[g]
		if !ok {
			return false
		}
		for m := range grp.Members {
			if reach(m) {
				return true
			}
		}
		return false
	}
	return reach(candidate)
}

// Snapshot serializes the full database for replica initialization.
func (db *DB) Snapshot() []byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var e wire.Encoder
	e.U64(db.version)
	users := make([]string, 0, len(db.users))
	for n := range db.users {
		users = append(users, n)
	}
	sort.Strings(users)
	e.U32(uint32(len(users)))
	for _, n := range users {
		u := db.users[n]
		e.String(u.Name)
		e.Raw(u.Key[:])
	}
	groups := make([]string, 0, len(db.groups))
	for n := range db.groups {
		groups = append(groups, n)
	}
	sort.Strings(groups)
	e.U32(uint32(len(groups)))
	for _, n := range groups {
		g := db.groups[n]
		e.String(g.Name)
		e.String(g.Owner)
		members := make([]string, 0, len(g.Members))
		for m := range g.Members {
			members = append(members, m)
		}
		sort.Strings(members)
		e.U32(uint32(len(members)))
		for _, m := range members {
			e.String(m)
		}
	}
	return append([]byte(nil), e.Buf()...)
}

// LoadSnapshot replaces the replica's contents with a snapshot.
func (db *DB) LoadSnapshot(data []byte) error {
	d := wire.NewDecoder(data)
	version := d.U64()
	users := make(map[string]*User)
	nu := d.U32()
	for i := uint32(0); i < nu && d.Err() == nil; i++ {
		u := &User{Name: d.String()}
		for j := range u.Key {
			u.Key[j] = d.U8()
		}
		users[u.Name] = u
	}
	groups := make(map[string]*Group)
	ng := d.U32()
	for i := uint32(0); i < ng && d.Err() == nil; i++ {
		g := &Group{Name: d.String(), Owner: d.String(), Members: make(map[string]bool)}
		nm := d.U32()
		for j := uint32(0); j < nm && d.Err() == nil; j++ {
			g.Members[d.String()] = true
		}
		groups[g.Name] = g
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("prot: corrupt snapshot: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.version = version
	db.users = users
	db.groups = groups
	db.cpsCache = nil
	return nil
}
