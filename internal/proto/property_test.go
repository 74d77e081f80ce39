package proto

import (
	"math/rand"
	"reflect"
	"testing"

	"itcfs/internal/wire"
)

// Table-driven property tests over every protocol message type: randomized
// values round-trip exactly, every truncation of a valid encoding is
// rejected with an error, and corrupted bodies never panic the decoder.
// These are the same frames the chaos harness damages in flight, so the
// decoders are the last line of defense behind the transport's MAC.

func randName(r *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789._-"
	n := r.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

func randPath(r *rand.Rand) string {
	path := ""
	for i := r.Intn(4); i >= 0; i-- {
		path += "/" + randName(r)
	}
	return path
}

func randFID(r *rand.Rand) FID {
	return FID{Volume: r.Uint32(), Vnode: r.Uint32(), Uniq: r.Uint32()}
}

func randRef(r *rand.Rand) Ref {
	ref := Ref{}
	if r.Intn(2) == 0 {
		ref.Path = randPath(r)
	} else {
		ref.FID = randFID(r)
	}
	return ref
}

// randStrings returns nil for an empty list, matching what the decoders
// produce, so reflect.DeepEqual compares structurally.
func randStrings(r *rand.Rand) []string {
	n := r.Intn(4)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = randName(r)
	}
	return out
}

func randBytes(r *rand.Rand) []byte {
	n := r.Intn(24)
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	r.Read(b)
	return b
}

func randStatus(r *rand.Rand) Status {
	return Status{
		FID:     randFID(r),
		Type:    FileType(r.Intn(3)),
		Size:    r.Int63(),
		Version: r.Uint64(),
		Mtime:   r.Int63(),
		Owner:   randName(r),
		Mode:    uint16(r.Uint32()),
		Links:   r.Intn(100),
		Target:  randPath(r),
	}
}

func randLocEntry(r *rand.Rand) LocEntry {
	return LocEntry{
		Prefix:    randPath(r),
		Volume:    r.Uint32(),
		Custodian: randName(r),
		Replicas:  randStrings(r),
	}
}

// dec adapts a typed decode function to a uniform signature.
func dec[T any](f func(*wire.Decoder) T) func([]byte) (any, error) {
	return func(body []byte) (any, error) { return Unmarshal(body, f) }
}

// messageCases generates one randomized instance of every message type plus
// its matching decoder.
func messageCases(r *rand.Rand) []struct {
	name   string
	msg    wire.Message
	decode func([]byte) (any, error)
} {
	return []struct {
		name   string
		msg    wire.Message
		decode func([]byte) (any, error)
	}{
		{"Ref", randRef(r), dec(DecodeRef)},
		{"Status", randStatus(r), dec(DecodeStatus)},
		{"FetchArgs", FetchArgs{Ref: randRef(r)}, dec(DecodeFetchArgs)},
		{"StoreArgs", StoreArgs{Ref: randRef(r), Mode: uint16(r.Uint32())}, dec(DecodeStoreArgs)},
		{"StatusArgs", StatusArgs{Ref: randRef(r)}, dec(DecodeStatusArgs)},
		{"SetStatusArgs", SetStatusArgs{
			Ref: randRef(r), SetMode: r.Intn(2) == 0, Mode: uint16(r.Uint32()),
			SetOwner: r.Intn(2) == 0, Owner: randName(r),
		}, dec(DecodeSetStatusArgs)},
		{"TestValidArgs", TestValidArgs{Ref: randRef(r), Version: r.Uint64()}, dec(DecodeTestValidArgs)},
		{"TestValidReply", TestValidReply{Valid: r.Intn(2) == 0, Version: r.Uint64()}, dec(DecodeTestValidReply)},
		{"NameArgs", NameArgs{Dir: randRef(r), Name: randName(r), Mode: uint16(r.Uint32())}, dec(DecodeNameArgs)},
		{"RenameArgs", RenameArgs{
			FromDir: randRef(r), FromName: randName(r), ToDir: randRef(r), ToName: randName(r),
		}, dec(DecodeRenameArgs)},
		{"SymlinkArgs", SymlinkArgs{Dir: randRef(r), Name: randName(r), Target: randPath(r)}, dec(DecodeSymlinkArgs)},
		{"LinkArgs", LinkArgs{Dir: randRef(r), Name: randName(r), Target: randRef(r)}, dec(DecodeLinkArgs)},
		{"ACLArgs", ACLArgs{Dir: randRef(r), ACL: randBytes(r)}, dec(DecodeACLArgs)},
		{"LockArgs", LockArgs{Ref: randRef(r), Exclusive: r.Intn(2) == 0}, dec(DecodeLockArgs)},
		{"CustodianArgs", CustodianArgs{Path: randPath(r)}, dec(DecodeCustodianArgs)},
		{"CallbackBreakArgs", CallbackBreakArgs{FID: randFID(r), Path: randPath(r)}, dec(DecodeCallbackBreakArgs)},
		{"VolCreateArgs", VolCreateArgs{
			Name: randName(r), Path: randPath(r), Quota: r.Int63(), Owner: randName(r),
		}, dec(DecodeVolCreateArgs)},
		{"VolCloneArgs", VolCloneArgs{
			Volume: r.Uint32(), Path: randPath(r), Replicas: randStrings(r),
		}, dec(DecodeVolCloneArgs)},
		{"VolStatusArgs", VolStatusArgs{Volume: r.Uint32()}, dec(DecodeVolStatusArgs)},
		{"VolStatusReply", VolStatusReply{
			Volume: r.Uint32(), Name: randName(r), Quota: r.Int63(), Used: r.Int63(),
			Online: r.Intn(2) == 0, ReadOnly: r.Intn(2) == 0, Server: randName(r),
		}, dec(DecodeVolStatusReply)},
		{"SalvageReply", SalvageReply{Orphans: r.Intn(1000), Dangling: r.Intn(1000), Links: r.Intn(1000)}, dec(DecodeSalvageReply)},
		{"VolSetQuotaArgs", VolSetQuotaArgs{Volume: r.Uint32(), Quota: r.Int63()}, dec(DecodeVolSetQuotaArgs)},
		{"VolMoveArgs", VolMoveArgs{Volume: r.Uint32(), Target: randName(r)}, dec(DecodeVolMoveArgs)},
		{"LocEntry", randLocEntry(r), dec(DecodeLocEntry)},
		{"LocInstallArgs", func() wire.Message {
			a := LocInstallArgs{Remove: randStrings(r)}
			for i := r.Intn(3); i > 0; i-- {
				a.Entries = append(a.Entries, randLocEntry(r))
			}
			return a
		}(), dec(DecodeLocInstallArgs)},
		{"VolInstallArgs", VolInstallArgs{
			Volume: r.Uint32(), Name: randName(r), ReadOnly: r.Intn(2) == 0,
		}, dec(DecodeVolInstallArgs)},
	}
}

// Property: every message type round-trips randomized values exactly.
func TestQuickMessageRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(1985))
	for iter := 0; iter < 100; iter++ {
		for _, tc := range messageCases(r) {
			got, err := tc.decode(Marshal(tc.msg))
			if err != nil {
				t.Fatalf("%s: decode: %v (msg %+v)", tc.name, err, tc.msg)
			}
			if !reflect.DeepEqual(got, tc.msg) {
				t.Fatalf("%s: round-trip mismatch:\n got %+v\nwant %+v", tc.name, got, tc.msg)
			}
		}
	}
}

// Property: no strict prefix of a valid encoding decodes cleanly — a frame
// cut short in flight is always an error, never a silently wrong message.
func TestQuickTruncatedMessagesRejected(t *testing.T) {
	r := rand.New(rand.NewSource(823))
	for iter := 0; iter < 20; iter++ {
		for _, tc := range messageCases(r) {
			enc := Marshal(tc.msg)
			for cut := 0; cut < len(enc); cut++ {
				if _, err := tc.decode(enc[:cut]); err == nil {
					t.Fatalf("%s: truncation to %d of %d bytes decoded cleanly (msg %+v)",
						tc.name, cut, len(enc), tc.msg)
				}
			}
		}
	}
}

// Property: decoding corrupted bodies returns — an error or a different
// message — but never panics and never over-reads. Bit flips model the
// in-flight damage the fault injector inflicts.
func TestQuickCorruptedMessagesNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(511))
	for iter := 0; iter < 50; iter++ {
		for _, tc := range messageCases(r) {
			enc := Marshal(tc.msg)
			if len(enc) == 0 {
				continue
			}
			corrupt := append([]byte(nil), enc...)
			for n := 1 + r.Intn(4); n > 0; n-- {
				corrupt[r.Intn(len(corrupt))] ^= byte(1 << uint(r.Intn(8)))
			}
			tc.decode(corrupt) // must not panic; any result is acceptable
		}
	}
	// Pure garbage of arbitrary length against every decoder.
	for iter := 0; iter < 50; iter++ {
		garbage := make([]byte, r.Intn(64))
		r.Read(garbage)
		for _, tc := range messageCases(r) {
			tc.decode(garbage)
		}
	}
}
