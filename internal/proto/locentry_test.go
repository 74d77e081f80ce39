package proto

// Round-trip, lying-count, truncation and fuzz coverage for the
// replica-carrying location messages. The replica lists ride the
// server-to-server LocInstall broadcast and the GetCustodian reply, so a
// corrupt or hostile count must fail fast instead of silently shortening a
// replica set — Venus would then never fail over to the missing sites.

import (
	"bytes"
	"reflect"
	"testing"

	"itcfs/internal/wire"
)

func TestLocEntryReplicasRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		le   LocEntry
	}{
		{"no replicas", LocEntry{Prefix: "/vice/bin", Volume: 7, Custodian: "server0"}},
		{"one replica", LocEntry{Prefix: "/vice/bin", Volume: 7, Custodian: "server0",
			Replicas: []string{"server1"}}},
		{"replica set", LocEntry{Prefix: "/vice/unix/bin-ro", Volume: 31, Custodian: "cluster2",
			Replicas: []string{"cluster0", "cluster1", "cluster3"}}},
		{"empty names", LocEntry{Prefix: "/", Volume: 1, Custodian: "",
			Replicas: []string{"", "x"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := Marshal(tc.le)
			got, err := Unmarshal(body, DecodeLocEntry)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, tc.le) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tc.le)
			}
			if !bytes.Equal(Marshal(got), body) {
				t.Fatal("re-encoding decoded entry is not byte-identical")
			}
		})
	}
}

// TestLocMessagesRejectLyingCounts feeds each replica-list decoder a count
// far beyond the bytes present: every one must error instead of allocating
// or looping.
func TestLocMessagesRejectLyingCounts(t *testing.T) {
	// LocEntry: valid prefix, volume, custodian, then a lying replica count.
	var e wire.Encoder
	e.String("/vice/bin")
	e.U32(7)
	e.String("server0")
	e.U32(1 << 30)
	if _, err := Unmarshal(e.Buf(), DecodeLocEntry); err == nil {
		t.Error("LocEntry accepted a lying replica count")
	}

	e.Reset()
	e.U32(7)
	e.String("/vice/bin")
	e.U32(1 << 30)
	if _, err := Unmarshal(e.Buf(), DecodeVolCloneArgs); err == nil {
		t.Error("VolCloneArgs accepted a lying replica count")
	}

	// LocInstallArgs: lying entry count, then lying remove count after a
	// valid empty entry list.
	e.Reset()
	e.U32(1 << 30)
	if _, err := Unmarshal(e.Buf(), DecodeLocInstallArgs); err == nil {
		t.Error("LocInstallArgs accepted a lying entry count")
	}
	e.Reset()
	e.U32(0)
	e.U32(1 << 30)
	if _, err := Unmarshal(e.Buf(), DecodeLocInstallArgs); err == nil {
		t.Error("LocInstallArgs accepted a lying remove count")
	}
}

// TestLocEntryTruncations decodes every strict prefix of a valid encoding:
// none may panic, none may succeed.
func TestLocEntryTruncations(t *testing.T) {
	le := LocEntry{Prefix: "/vice/unix/bin-ro", Volume: 31, Custodian: "cluster2",
		Replicas: []string{"cluster0", "cluster1"}}
	body := Marshal(le)
	for n := 0; n < len(body); n++ {
		if _, err := Unmarshal(body[:n], DecodeLocEntry); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(body))
		}
	}
	args := LocInstallArgs{Entries: []LocEntry{le}, Remove: []string{"/old"}}
	body = Marshal(args)
	for n := 0; n < len(body); n++ {
		if _, err := Unmarshal(body[:n], DecodeLocInstallArgs); err == nil {
			t.Fatalf("LocInstallArgs truncation to %d/%d bytes decoded without error", n, len(body))
		}
	}
}

// FuzzLocEntry hammers the location-entry decoders with arbitrary bodies.
// Any input may be rejected, but a decode that succeeds must re-encode
// byte-identically — the canonical-encoding property the deterministic
// broadcasts rely on.
func FuzzLocEntry(f *testing.F) {
	f.Add([]byte{})
	f.Add(Marshal(LocEntry{Prefix: "/vice/bin", Volume: 7, Custodian: "server0",
		Replicas: []string{"server1", "server2"}}))
	f.Add(Marshal(LocInstallArgs{
		Entries: []LocEntry{{Prefix: "/a", Volume: 1, Custodian: "s0", Replicas: []string{"s1"}}},
		Remove:  []string{"/b"},
	}))
	f.Fuzz(func(t *testing.T, body []byte) {
		if le, err := Unmarshal(body, DecodeLocEntry); err == nil {
			if !bytes.Equal(Marshal(le), body) {
				t.Fatal("LocEntry decode/encode not canonical")
			}
		}
		if args, err := Unmarshal(body, DecodeLocInstallArgs); err == nil {
			if !bytes.Equal(Marshal(args), body) {
				t.Fatal("LocInstallArgs decode/encode not canonical")
			}
		}
	})
}
