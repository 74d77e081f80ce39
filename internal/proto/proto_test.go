package proto

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"itcfs/internal/prot"
	"itcfs/internal/wire"
)

func TestFIDRoundTripAndString(t *testing.T) {
	f := FID{Volume: 7, Vnode: 42, Uniq: 3}
	var e wire.Encoder
	f.Encode(&e)
	d := wire.NewDecoder(e.Buf())
	if got := DecodeFID(d); got != f {
		t.Fatalf("round trip: %v != %v", got, f)
	}
	if f.String() != "7.42.3" {
		t.Fatalf("String = %q", f.String())
	}
	if f.IsZero() || (FID{}).IsZero() != true {
		t.Fatal("IsZero wrong")
	}
}

func TestRefModes(t *testing.T) {
	byPath := Ref{Path: "/usr/satya/f"}
	if byPath.ByFID() {
		t.Fatal("path ref claims FID")
	}
	byFID := Ref{FID: FID{1, 2, 3}}
	if !byFID.ByFID() {
		t.Fatal("FID ref not recognized")
	}
	if byPath.String() != "/usr/satya/f" || byFID.String() != "1.2.3" {
		t.Fatal("String forms wrong")
	}
}

func TestStatusRoundTrip(t *testing.T) {
	s := Status{
		FID:     FID{1, 2, 3},
		Type:    TypeSymlink,
		Size:    12345,
		Version: 99,
		Mtime:   -7,
		Owner:   "satya",
		Mode:    0o644,
		Links:   2,
		Target:  "/vice/bin",
	}
	var e wire.Encoder
	s.Encode(&e)
	d := wire.NewDecoder(e.Buf())
	got := DecodeStatus(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip: %+v != %+v", got, s)
	}
}

func TestDirEntriesRoundTrip(t *testing.T) {
	entries := []DirEntry{
		{Name: "bin", FID: FID{1, 7, 2}, Type: TypeSymlink},
		{Name: "paper.mss", FID: FID{1, 5, 1}, Type: TypeFile},
		{Name: "src", FID: FID{1, 6, 1}, Type: TypeDir},
	}
	data := DirListing(entries)
	if int64(len(data)) != DirSize(entries) {
		t.Fatalf("listing is %d bytes, DirSize says %d", len(data), DirSize(entries))
	}
	got, err := Unmarshal(data, DecodeDirEntries)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, entries) {
		t.Fatalf("round trip: %+v != %+v", got, entries)
	}
	if _, err := Unmarshal([]byte("junk"), DecodeDirEntries); err == nil {
		t.Fatal("garbage directory accepted")
	}
	empty, err := Unmarshal(DirListing(nil), DecodeDirEntries)
	if err != nil || len(empty) != 0 {
		t.Fatal("empty listing round trip failed")
	}
	// A table out of name order, or with a name twice, is refused.
	for _, bad := range [][]DirEntry{
		{entries[1], entries[0]},
		{entries[0], entries[0]},
	} {
		if _, err := Unmarshal(DirListing(bad), DecodeDirEntries); err == nil {
			t.Fatalf("unsorted table %+v accepted", bad)
		}
	}
}

func TestDirEntryEdits(t *testing.T) {
	var dir []DirEntry
	for _, name := range []string{"m", "b", "x", "a", "m"} {
		dir = InsertDirEntry(dir, DirEntry{Name: name, FID: FID{1, uint32(len(name)), 1}})
	}
	dir = InsertDirEntry(dir, DirEntry{Name: "b", FID: FID{1, 9, 9}}) // replaces
	if got := names(dir); got != "a b m x" {
		t.Fatalf("after inserts: %s", got)
	}
	if de, ok := LookupDirEntry(dir, "b"); !ok || de.FID != (FID{1, 9, 9}) {
		t.Fatalf("Lookup(b) = %+v, %v", de, ok)
	}
	if _, ok := LookupDirEntry(dir, "c"); ok {
		t.Fatal("Lookup found a missing name")
	}
	dir = RemoveDirEntry(RemoveDirEntry(dir, "m"), "nope")
	if got := names(dir); got != "a b x" {
		t.Fatalf("after removes: %s", got)
	}
}

func names(dir []DirEntry) string {
	var out []string
	for _, de := range dir {
		out = append(out, de.Name)
	}
	return strings.Join(out, " ")
}

// FuzzDirEntries checks the entry-table decoder on arbitrary bytes: it never
// panics, it accepts exactly the tables whose names strictly ascend, and
// what it accepts encodes back to the same bytes.
func FuzzDirEntries(f *testing.F) {
	f.Add([]byte{})
	f.Add(DirListing(nil))
	f.Add(DirListing([]DirEntry{{Name: "a", FID: FID{1, 2, 3}, Type: TypeFile}, {Name: "b"}}))
	f.Add(DirListing([]DirEntry{{Name: "b"}, {Name: "a"}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data, DecodeDirEntries)
		if err != nil {
			// Refused: either not a table at all, or one out of order.
			d := wire.NewDecoder(data)
			n := d.ListLen(1)
			var seen []string
			for i := 0; i < n && d.Err() == nil; i++ {
				seen = append(seen, d.String())
				DecodeFID(d)
				d.U8()
			}
			if d.Close() == nil && slices.IsSorted(seen) && len(slices.Compact(seen)) == n {
				t.Fatalf("well-formed ascending table refused: %v", err)
			}
			return
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Name >= got[i].Name {
				t.Fatalf("accepted a table out of order: %+v", got)
			}
		}
		if !bytes.Equal(DirListing(got), data) || DirSize(got) != int64(len(data)) {
			t.Fatal("accepted table does not re-encode to its bytes")
		}
	})
}

func TestErrorCodeMapping(t *testing.T) {
	for code, sentinel := range map[uint16]error{
		CodeNoEnt:    ErrNoEnt,
		CodeAccess:   ErrAccess,
		CodeQuota:    ErrQuota,
		CodeOffline:  ErrOffline,
		CodeReadOnly: ErrReadOnly,
		CodeLocked:   ErrLocked,
		CodeStale:    ErrStale,
	} {
		if got := ErrToCode(sentinel); got != code {
			t.Errorf("ErrToCode(%v) = %d, want %d", sentinel, got, code)
		}
		if err := CodeToErr(code, "detail"); !errors.Is(err, sentinel) {
			t.Errorf("CodeToErr(%d) = %v, not %v", code, err, sentinel)
		}
	}
	if CodeToErr(CodeOK, "") != nil {
		t.Error("CodeOK should map to nil")
	}
	if ErrToCode(nil) != CodeOK {
		t.Error("nil should map to CodeOK")
	}
	if ErrToCode(errors.New("mystery")) != CodeInternal {
		t.Error("unknown error should map to CodeInternal")
	}
	// Wrapped errors map through.
	wrapped := CodeToErr(CodeNoEnt, "missing file")
	if ErrToCode(wrapped) != CodeNoEnt {
		t.Error("wrapped sentinel lost its code")
	}
}

// A refused operation's detail is the server's error text, which already
// starts with the sentinel's: the error prints the sentinel once, and
// errors.Is still finds it. A detail of its own is kept after the sentinel.
func TestCodeToErrPrintsTheSentinelOnce(t *testing.T) {
	for code, sentinel := range codeToErr {
		err := CodeToErr(code, sentinel.Error())
		if !errors.Is(err, sentinel) || err.Error() != sentinel.Error() {
			t.Errorf("CodeToErr(%d, %q) = %q", code, sentinel.Error(), err)
		}
	}
	for detail, want := range map[string]string{
		"vice: file is locked: write-locked by satya": "vice: file is locked: write-locked by satya",
		"write-locked by satya":                       "vice: file is locked: write-locked by satya",
		"vice: file is lockedown":                     "vice: file is locked: vice: file is lockedown",
	} {
		err := CodeToErr(CodeLocked, detail)
		if !errors.Is(err, ErrLocked) || err.Error() != want {
			t.Errorf("CodeToErr(CodeLocked, %q) = %q, want %q", detail, err, want)
		}
	}
}

func TestWrongServerCarriesCustodian(t *testing.T) {
	err := &WrongServer{Custodian: "server3"}
	if !errors.Is(err, ErrWrongServer) {
		t.Fatal("WrongServer does not unwrap to ErrWrongServer")
	}
	if ErrToCode(err) != CodeWrongServer {
		t.Fatal("WrongServer code mapping wrong")
	}
	var ws *WrongServer
	if !errors.As(error(err), &ws) || ws.Custodian != "server3" {
		t.Fatal("custodian hint lost")
	}
}

func TestACLBodyRoundTrip(t *testing.T) {
	a := prot.NewACL()
	a.Grant("satya", prot.RightsAll)
	a.Deny("mallory", prot.RightWrite)
	got, err := ACLDecode(ACLEncode(a))
	if err != nil {
		t.Fatal(err)
	}
	if got.Positive["satya"] != prot.RightsAll || got.Negative["mallory"] != prot.RightWrite {
		t.Fatalf("ACL round trip: %+v", got)
	}
	if _, err := ACLDecode([]byte{1, 2}); err == nil {
		t.Fatal("garbage ACL accepted")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	// Every message type round-trips through its encode/decode pair.
	ref := Ref{Path: "/usr/f", FID: FID{1, 2, 3}}

	fa, err := Unmarshal(Marshal(FetchArgs{Ref: ref}), DecodeFetchArgs)
	if err != nil || fa.Ref != ref {
		t.Fatalf("FetchArgs: %+v %v", fa, err)
	}
	sa, err := Unmarshal(Marshal(StoreArgs{Ref: ref, Mode: 0o600}), DecodeStoreArgs)
	if err != nil || sa.Mode != 0o600 {
		t.Fatalf("StoreArgs: %+v %v", sa, err)
	}
	tv, err := Unmarshal(Marshal(TestValidArgs{Ref: ref, Version: 9}), DecodeTestValidArgs)
	if err != nil || tv.Version != 9 {
		t.Fatalf("TestValidArgs: %+v %v", tv, err)
	}
	tvr, err := Unmarshal(Marshal(TestValidReply{Valid: true, Version: 12}), DecodeTestValidReply)
	if err != nil || !tvr.Valid || tvr.Version != 12 {
		t.Fatalf("TestValidReply: %+v %v", tvr, err)
	}
	na, err := Unmarshal(Marshal(NameArgs{Dir: ref, Name: "child", Mode: 0o755}), DecodeNameArgs)
	if err != nil || na.Name != "child" {
		t.Fatalf("NameArgs: %+v %v", na, err)
	}
	ra, err := Unmarshal(Marshal(RenameArgs{FromDir: ref, FromName: "a", ToDir: ref, ToName: "b"}), DecodeRenameArgs)
	if err != nil || ra.FromName != "a" || ra.ToName != "b" {
		t.Fatalf("RenameArgs: %+v %v", ra, err)
	}
	sy, err := Unmarshal(Marshal(SymlinkArgs{Dir: ref, Name: "l", Target: "/t"}), DecodeSymlinkArgs)
	if err != nil || sy.Target != "/t" {
		t.Fatalf("SymlinkArgs: %+v %v", sy, err)
	}
	la, err := Unmarshal(Marshal(LinkArgs{Dir: ref, Name: "l", Target: ref}), DecodeLinkArgs)
	if err != nil || la.Target != ref {
		t.Fatalf("LinkArgs: %+v %v", la, err)
	}
	ca, err := Unmarshal(Marshal(CustodianArgs{Path: "/usr"}), DecodeCustodianArgs)
	if err != nil || ca.Path != "/usr" {
		t.Fatalf("CustodianArgs: %+v %v", ca, err)
	}
	cr, err := Unmarshal(Marshal(CustodianReply{
		Prefix: "/usr", Volume: 4, Custodian: "s1", Replicas: []string{"s2", "s3"},
	}), DecodeLocEntry)
	if err != nil || cr.Custodian != "s1" || len(cr.Replicas) != 2 {
		t.Fatalf("CustodianReply: %+v %v", cr, err)
	}
	cb, err := Unmarshal(Marshal(CallbackBreakArgs{FID: FID{1, 2, 3}, Path: "/f"}), DecodeCallbackBreakArgs)
	if err != nil || cb.FID != (FID{1, 2, 3}) {
		t.Fatalf("CallbackBreakArgs: %+v %v", cb, err)
	}
	vc, err := Unmarshal(Marshal(VolCreateArgs{Name: "user.satya", Path: "/usr/satya", Quota: 1 << 20, Owner: "satya"}), DecodeVolCreateArgs)
	if err != nil || vc.Quota != 1<<20 {
		t.Fatalf("VolCreateArgs: %+v %v", vc, err)
	}
	vcl, err := Unmarshal(Marshal(VolCloneArgs{Volume: 3, Path: "/bin", Replicas: []string{"s2"}}), DecodeVolCloneArgs)
	if err != nil || vcl.Volume != 3 || len(vcl.Replicas) != 1 {
		t.Fatalf("VolCloneArgs: %+v %v", vcl, err)
	}
	vs, err := Unmarshal(Marshal(VolStatusReply{Volume: 3, Name: "n", Quota: 5, Used: 4, Online: true, ReadOnly: true, Server: "s"}), DecodeVolStatusReply)
	if err != nil || !vs.ReadOnly || vs.Used != 4 {
		t.Fatalf("VolStatusReply: %+v %v", vs, err)
	}
	li, err := Unmarshal(Marshal(LocInstallArgs{
		Entries: []LocEntry{{Prefix: "/usr/satya", Volume: 4, Custodian: "s1", Replicas: []string{"s2"}}},
		Remove:  []string{"/old"},
	}), DecodeLocInstallArgs)
	if err != nil || len(li.Entries) != 1 || li.Entries[0].Volume != 4 || len(li.Remove) != 1 {
		t.Fatalf("LocInstallArgs: %+v %v", li, err)
	}
	ss, err := Unmarshal(Marshal(SetStatusArgs{Ref: ref, SetMode: true, Mode: 0o600, SetOwner: true, Owner: "o"}), DecodeSetStatusArgs)
	if err != nil || !ss.SetMode || ss.Owner != "o" {
		t.Fatalf("SetStatusArgs: %+v %v", ss, err)
	}
	lk, err := Unmarshal(Marshal(LockArgs{Ref: ref, Exclusive: true}), DecodeLockArgs)
	if err != nil || !lk.Exclusive {
		t.Fatalf("LockArgs: %+v %v", lk, err)
	}
	vi, err := Unmarshal(Marshal(VolInstallArgs{Volume: 8, Name: "ro", ReadOnly: true}), DecodeVolInstallArgs)
	if err != nil || vi.Volume != 8 || !vi.ReadOnly {
		t.Fatalf("VolInstallArgs: %+v %v", vi, err)
	}
}

func TestUnmarshalRejectsTrailingGarbage(t *testing.T) {
	body := append(Marshal(CustodianArgs{Path: "/x"}), 0xFF)
	if _, err := Unmarshal(body, DecodeCustodianArgs); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
}

// Property: directory listings of arbitrary names round-trip once sorted and
// made unique, and are refused when two of them are swapped.
func TestQuickDirEntries(t *testing.T) {
	f := func(names []string, vols []uint32) bool {
		slices.Sort(names)
		names = slices.Compact(names)
		var entries []DirEntry
		for i, n := range names {
			var v uint32
			if len(vols) > 0 {
				v = vols[i%len(vols)]
			}
			entries = append(entries, DirEntry{Name: n, FID: FID{Volume: v, Vnode: uint32(i)}, Type: TypeFile})
		}
		got, err := Unmarshal(DirListing(entries), DecodeDirEntries)
		if err != nil || !slices.Equal(got, entries) {
			return false
		}
		if len(entries) < 2 {
			return true
		}
		entries[0], entries[1] = entries[1], entries[0]
		_, err = Unmarshal(DirListing(entries), DecodeDirEntries)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalDoesNotAllocate pins the decoder pool: Unmarshal hands its
// Decoder to a function value, so a local one is heap-allocated per message —
// two objects per RPC, one on each side. AllocsPerRun's integer average also
// absorbs the pool items the race detector drops at random.
func TestUnmarshalDoesNotAllocate(t *testing.T) {
	body := Marshal(Status{FID: FID{1, 2, 3}, Type: TypeFile, Size: 4096, Version: 7, Mode: 0o644, Links: 1})
	var st Status
	got := testing.AllocsPerRun(200, func() {
		var err error
		if st, err = Unmarshal(body, DecodeStatus); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("Unmarshal(DecodeStatus) allocates %.0f objects per message, want 0", got)
	}
	if st.Size != 4096 || st.Version != 7 {
		t.Fatalf("decoded %+v", st)
	}
}
