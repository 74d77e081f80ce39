package proto

import (
	"fmt"

	"itcfs/internal/wire"
)

// This file defines the argument and reply messages for every Vice
// operation. Each type encodes explicitly; Unmarshal helpers wrap decoding
// with error handling so server handlers can reject malformed requests with
// CodeBadRequest.

// Unmarshal decodes body into any message with a decode function.
func Unmarshal[T any](body []byte, decode func(*wire.Decoder) T) (T, error) {
	d := wire.GetDecoder(body)
	v := decode(d)
	err := d.Close()
	wire.PutDecoder(d)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return v, nil
}

// Marshal encodes any message into a fresh byte slice.
func Marshal[M wire.Message](m M) []byte { return wire.Marshal(m) }

// FetchArgs requests a whole file (data returned as the bulk side effect)
// along with its status. In revised mode a successful fetch also records a
// callback promise for the connection.
type FetchArgs struct {
	Ref Ref
}

func (a FetchArgs) Encode(e *wire.Encoder) { a.Ref.Encode(e) }

// DecodeFetchArgs unmarshals FetchArgs.
func DecodeFetchArgs(d *wire.Decoder) FetchArgs { return FetchArgs{Ref: DecodeRef(d)} }

// StoreArgs stores a whole file (data in the bulk side effect), creating it
// if absent in prototype (path) mode.
type StoreArgs struct {
	Ref  Ref
	Mode uint16
}

func (a StoreArgs) Encode(e *wire.Encoder) {
	a.Ref.Encode(e)
	e.U16(a.Mode)
}

// DecodeStoreArgs unmarshals StoreArgs.
func DecodeStoreArgs(d *wire.Decoder) StoreArgs {
	return StoreArgs{Ref: DecodeRef(d), Mode: d.U16()}
}

// StatusArgs requests the status record of a file ("GetFileStat").
type StatusArgs struct {
	Ref Ref
}

func (a StatusArgs) Encode(e *wire.Encoder) { a.Ref.Encode(e) }

// DecodeStatusArgs unmarshals StatusArgs.
func DecodeStatusArgs(d *wire.Decoder) StatusArgs { return StatusArgs{Ref: DecodeRef(d)} }

// SetStatusArgs updates mutable status fields.
type SetStatusArgs struct {
	Ref      Ref
	SetMode  bool
	Mode     uint16
	SetOwner bool
	Owner    string
}

func (a SetStatusArgs) Encode(e *wire.Encoder) {
	a.Ref.Encode(e)
	e.Bool(a.SetMode)
	e.U16(a.Mode)
	e.Bool(a.SetOwner)
	e.String(a.Owner)
}

// DecodeSetStatusArgs unmarshals SetStatusArgs.
func DecodeSetStatusArgs(d *wire.Decoder) SetStatusArgs {
	return SetStatusArgs{
		Ref:      DecodeRef(d),
		SetMode:  d.Bool(),
		Mode:     d.U16(),
		SetOwner: d.Bool(),
		Owner:    d.String(),
	}
}

// TestValidArgs asks whether a cached copy at Version is still current.
type TestValidArgs struct {
	Ref     Ref
	Version uint64
}

func (a TestValidArgs) Encode(e *wire.Encoder) {
	a.Ref.Encode(e)
	e.U64(a.Version)
}

// DecodeTestValidArgs unmarshals TestValidArgs.
func DecodeTestValidArgs(d *wire.Decoder) TestValidArgs {
	return TestValidArgs{Ref: DecodeRef(d), Version: d.U64()}
}

// TestValidReply answers a validity check.
type TestValidReply struct {
	Valid   bool
	Version uint64 // the current version at the custodian
}

func (r TestValidReply) Encode(e *wire.Encoder) {
	e.Bool(r.Valid)
	e.U64(r.Version)
}

// DecodeTestValidReply unmarshals TestValidReply.
func DecodeTestValidReply(d *wire.Decoder) TestValidReply {
	return TestValidReply{Valid: d.Bool(), Version: d.U64()}
}

// MaxBulkItems caps the batch size of BulkTestValid and BulkBreak. Senders
// chunk above it; the server rejects oversized decoded batches with
// CodeBadRequest. Decoders stay safe regardless: wire.Decoder.ListLen bounds
// the count by the bytes actually present.
const MaxBulkItems = 1024

// BulkTestValidArgs validates many cached (Ref, version) pairs against one
// custodian in a single round trip.
type BulkTestValidArgs struct {
	Items []TestValidArgs
}

func (a BulkTestValidArgs) Encode(e *wire.Encoder) {
	e.ListLen(len(a.Items))
	for _, it := range a.Items {
		it.Encode(e)
	}
}

// DecodeBulkTestValidArgs unmarshals BulkTestValidArgs.
func DecodeBulkTestValidArgs(d *wire.Decoder) BulkTestValidArgs {
	// Each item is at least a Ref (u32 path length + FID) plus a version.
	n := d.ListLen(4 + 12 + 8)
	var a BulkTestValidArgs
	for i := 0; i < n && d.Err() == nil; i++ {
		a.Items = append(a.Items, DecodeTestValidArgs(d))
	}
	return a
}

// BulkTestValidReply answers a batched validity check. Items correspond
// one-to-one, in order, with the request's items.
type BulkTestValidReply struct {
	Items []TestValidReply
}

func (r BulkTestValidReply) Encode(e *wire.Encoder) {
	e.ListLen(len(r.Items))
	for _, it := range r.Items {
		it.Encode(e)
	}
}

// DecodeBulkTestValidReply unmarshals BulkTestValidReply.
func DecodeBulkTestValidReply(d *wire.Decoder) BulkTestValidReply {
	n := d.ListLen(1 + 8) // bool + version
	var r BulkTestValidReply
	for i := 0; i < n && d.Err() == nil; i++ {
		r.Items = append(r.Items, DecodeTestValidReply(d))
	}
	return r
}

// NameArgs addresses an entry Name within directory Dir: Create, MakeDir,
// Remove, RemoveDir.
type NameArgs struct {
	Dir  Ref
	Name string
	Mode uint16 // for Create/MakeDir
}

func (a NameArgs) Encode(e *wire.Encoder) {
	a.Dir.Encode(e)
	e.String(a.Name)
	e.U16(a.Mode)
}

// DecodeNameArgs unmarshals NameArgs.
func DecodeNameArgs(d *wire.Decoder) NameArgs {
	return NameArgs{Dir: DecodeRef(d), Name: d.String(), Mode: d.U16()}
}

// RenameArgs moves FromName in FromDir to ToName in ToDir.
type RenameArgs struct {
	FromDir  Ref
	FromName string
	ToDir    Ref
	ToName   string
}

func (a RenameArgs) Encode(e *wire.Encoder) {
	a.FromDir.Encode(e)
	e.String(a.FromName)
	a.ToDir.Encode(e)
	e.String(a.ToName)
}

// DecodeRenameArgs unmarshals RenameArgs.
func DecodeRenameArgs(d *wire.Decoder) RenameArgs {
	return RenameArgs{
		FromDir:  DecodeRef(d),
		FromName: d.String(),
		ToDir:    DecodeRef(d),
		ToName:   d.String(),
	}
}

// SymlinkArgs creates a symbolic link Name in Dir pointing at Target.
type SymlinkArgs struct {
	Dir    Ref
	Name   string
	Target string
}

func (a SymlinkArgs) Encode(e *wire.Encoder) {
	a.Dir.Encode(e)
	e.String(a.Name)
	e.String(a.Target)
}

// DecodeSymlinkArgs unmarshals SymlinkArgs.
func DecodeSymlinkArgs(d *wire.Decoder) SymlinkArgs {
	return SymlinkArgs{Dir: DecodeRef(d), Name: d.String(), Target: d.String()}
}

// LinkArgs creates a hard link Name in Dir to the existing file Target.
type LinkArgs struct {
	Dir    Ref
	Name   string
	Target Ref
}

func (a LinkArgs) Encode(e *wire.Encoder) {
	a.Dir.Encode(e)
	e.String(a.Name)
	a.Target.Encode(e)
}

// DecodeLinkArgs unmarshals LinkArgs.
func DecodeLinkArgs(d *wire.Decoder) LinkArgs {
	return LinkArgs{Dir: DecodeRef(d), Name: d.String(), Target: DecodeRef(d)}
}

// ACLArgs addresses a directory's access list. For SetACL the new list
// rides in the body after the args; use with ACLEncode/ACLDecode.
type ACLArgs struct {
	Dir Ref
	ACL []byte // encoded prot.ACL for SetACL; empty for GetACL
}

func (a ACLArgs) Encode(e *wire.Encoder) {
	a.Dir.Encode(e)
	e.Bytes(a.ACL)
}

// DecodeACLArgs unmarshals ACLArgs.
func DecodeACLArgs(d *wire.Decoder) ACLArgs {
	return ACLArgs{Dir: DecodeRef(d), ACL: append([]byte(nil), d.Bytes()...)}
}

// LockArgs sets or releases an advisory lock (§3.6).
type LockArgs struct {
	Ref       Ref
	Exclusive bool
}

func (a LockArgs) Encode(e *wire.Encoder) {
	a.Ref.Encode(e)
	e.Bool(a.Exclusive)
}

// DecodeLockArgs unmarshals LockArgs.
func DecodeLockArgs(d *wire.Decoder) LockArgs {
	return LockArgs{Ref: DecodeRef(d), Exclusive: d.Bool()}
}

// CustodianArgs asks which server is the custodian for a path.
type CustodianArgs struct {
	Path string
}

func (a CustodianArgs) Encode(e *wire.Encoder) { e.String(a.Path) }

// DecodeCustodianArgs unmarshals CustodianArgs.
func DecodeCustodianArgs(d *wire.Decoder) CustodianArgs {
	return CustodianArgs{Path: d.String()}
}

// CustodianReply answers a location query with the row that covers the
// path: the matched subtree prefix, the volume mounted there, its custodian
// and any read-only replica sites.
type CustodianReply = LocEntry

// CallbackBreakArgs tells a workstation its cached copy is no longer valid.
type CallbackBreakArgs struct {
	FID  FID
	Path string // set in path mode so prototype-style clients can match
}

func (a CallbackBreakArgs) Encode(e *wire.Encoder) {
	a.FID.Encode(e)
	e.String(a.Path)
}

// DecodeCallbackBreakArgs unmarshals CallbackBreakArgs.
func DecodeCallbackBreakArgs(d *wire.Decoder) CallbackBreakArgs {
	return CallbackBreakArgs{FID: DecodeFID(d), Path: d.String()}
}

// BulkBreakArgs invalidates many promises held by one workstation in a
// single callback RPC. Items arrive in the server's deterministic break
// order (promise registration order within each update, updates in the
// order the server coalesced them).
type BulkBreakArgs struct {
	Items []CallbackBreakArgs
}

func (a BulkBreakArgs) Encode(e *wire.Encoder) {
	e.ListLen(len(a.Items))
	for _, it := range a.Items {
		it.Encode(e)
	}
}

// DecodeBulkBreakArgs unmarshals BulkBreakArgs.
func DecodeBulkBreakArgs(d *wire.Decoder) BulkBreakArgs {
	n := d.ListLen(12 + 4) // FID + u32 path length
	var a BulkBreakArgs
	for i := 0; i < n && d.Err() == nil; i++ {
		a.Items = append(a.Items, DecodeCallbackBreakArgs(d))
	}
	return a
}

// VolCreateArgs creates a volume and mounts it at Path in the shared name
// space.
type VolCreateArgs struct {
	Name  string
	Path  string
	Quota int64
	Owner string
}

func (a VolCreateArgs) Encode(e *wire.Encoder) {
	e.String(a.Name)
	e.String(a.Path)
	e.I64(a.Quota)
	e.String(a.Owner)
}

// DecodeVolCreateArgs unmarshals VolCreateArgs.
func DecodeVolCreateArgs(d *wire.Decoder) VolCreateArgs {
	return VolCreateArgs{Name: d.String(), Path: d.String(), Quota: d.I64(), Owner: d.String()}
}

// VolCloneArgs clones a volume into a read-only snapshot, optionally
// replicating it to other servers and mounting it at Path.
type VolCloneArgs struct {
	Volume   uint32
	Path     string   // mount point for the clone ("" = do not mount)
	Replicas []string // additional servers to install the clone on
}

func (a VolCloneArgs) Encode(e *wire.Encoder) {
	e.U32(a.Volume)
	e.String(a.Path)
	e.ListLen(len(a.Replicas))
	for _, r := range a.Replicas {
		e.String(r)
	}
}

// DecodeVolCloneArgs unmarshals VolCloneArgs.
func DecodeVolCloneArgs(d *wire.Decoder) VolCloneArgs {
	a := VolCloneArgs{Volume: d.U32(), Path: d.String()}
	n := d.ListLen(4) // each replica name is at least a u32 length prefix
	for i := 0; i < n && d.Err() == nil; i++ {
		a.Replicas = append(a.Replicas, d.String())
	}
	return a
}

// VolStatusArgs asks about one volume.
type VolStatusArgs struct {
	Volume uint32
}

func (a VolStatusArgs) Encode(e *wire.Encoder) { e.U32(a.Volume) }

// DecodeVolStatusArgs unmarshals VolStatusArgs.
func DecodeVolStatusArgs(d *wire.Decoder) VolStatusArgs { return VolStatusArgs{Volume: d.U32()} }

// VolStatusReply describes one volume.
type VolStatusReply struct {
	Volume   uint32
	Name     string
	Quota    int64
	Used     int64
	Online   bool
	ReadOnly bool
	Server   string
}

func (r VolStatusReply) Encode(e *wire.Encoder) {
	e.U32(r.Volume)
	e.String(r.Name)
	e.I64(r.Quota)
	e.I64(r.Used)
	e.Bool(r.Online)
	e.Bool(r.ReadOnly)
	e.String(r.Server)
}

// DecodeVolStatusReply unmarshals VolStatusReply.
func DecodeVolStatusReply(d *wire.Decoder) VolStatusReply {
	return VolStatusReply{
		Volume:   d.U32(),
		Name:     d.String(),
		Quota:    d.I64(),
		Used:     d.I64(),
		Online:   d.Bool(),
		ReadOnly: d.Bool(),
		Server:   d.String(),
	}
}

// SalvageReply carries what a salvage repaired, summed over the volumes it
// scanned.
type SalvageReply struct {
	Orphans  int // vnodes no directory reached, removed
	Dangling int // directory entries naming no vnode, dropped
	Links    int // link counts corrected
}

func (r SalvageReply) Encode(e *wire.Encoder) {
	e.Int(r.Orphans)
	e.Int(r.Dangling)
	e.Int(r.Links)
}

// DecodeSalvageReply unmarshals SalvageReply.
func DecodeSalvageReply(d *wire.Decoder) SalvageReply {
	return SalvageReply{Orphans: d.Int(), Dangling: d.Int(), Links: d.Int()}
}

// VolSetQuotaArgs changes a volume's quota.
type VolSetQuotaArgs struct {
	Volume uint32
	Quota  int64
}

func (a VolSetQuotaArgs) Encode(e *wire.Encoder) {
	e.U32(a.Volume)
	e.I64(a.Quota)
}

// DecodeVolSetQuotaArgs unmarshals VolSetQuotaArgs.
func DecodeVolSetQuotaArgs(d *wire.Decoder) VolSetQuotaArgs {
	return VolSetQuotaArgs{Volume: d.U32(), Quota: d.I64()}
}

// VolMoveArgs reassigns a volume to another custodian.
type VolMoveArgs struct {
	Volume uint32
	Target string // destination server name
}

func (a VolMoveArgs) Encode(e *wire.Encoder) {
	e.U32(a.Volume)
	e.String(a.Target)
}

// DecodeVolMoveArgs unmarshals VolMoveArgs.
func DecodeVolMoveArgs(d *wire.Decoder) VolMoveArgs {
	return VolMoveArgs{Volume: d.U32(), Target: d.String()}
}

// LocEntry is one row of the replicated location database: the volume
// mounted at Prefix, its custodian and read-only replica sites (§3.1).
type LocEntry struct {
	Prefix    string
	Volume    uint32
	Custodian string
	Replicas  []string
}

func (le LocEntry) Encode(e *wire.Encoder) {
	e.String(le.Prefix)
	e.U32(le.Volume)
	e.String(le.Custodian)
	e.ListLen(len(le.Replicas))
	for _, r := range le.Replicas {
		e.String(r)
	}
}

// DecodeLocEntry unmarshals a LocEntry. The replica list is length-validated
// against the bytes present: a lying count fails fast instead of driving a
// huge preallocation or a silent short list.
func DecodeLocEntry(d *wire.Decoder) LocEntry {
	le := LocEntry{Prefix: d.String(), Volume: d.U32(), Custodian: d.String()}
	n := d.ListLen(4) // each replica name is at least a u32 length prefix
	for i := 0; i < n && d.Err() == nil; i++ {
		le.Replicas = append(le.Replicas, d.String())
	}
	return le
}

// LocInstallArgs pushes location-database rows to a replica. Remove lists
// prefixes to delete.
type LocInstallArgs struct {
	Entries []LocEntry
	Remove  []string
}

func (a LocInstallArgs) Encode(e *wire.Encoder) {
	e.ListLen(len(a.Entries))
	for _, le := range a.Entries {
		le.Encode(e)
	}
	e.ListLen(len(a.Remove))
	for _, p := range a.Remove {
		e.String(p)
	}
}

// DecodeLocInstallArgs unmarshals LocInstallArgs.
func DecodeLocInstallArgs(d *wire.Decoder) LocInstallArgs {
	var a LocInstallArgs
	// Each entry is at least two u32 string lengths, a volume id and a
	// replica count.
	n := d.ListLen(4 + 4 + 4 + 4)
	for i := 0; i < n && d.Err() == nil; i++ {
		a.Entries = append(a.Entries, DecodeLocEntry(d))
	}
	m := d.ListLen(4)
	for i := 0; i < m && d.Err() == nil; i++ {
		a.Remove = append(a.Remove, d.String())
	}
	return a
}

// VolInstallArgs carries a serialized volume image (in the bulk payload) to
// install on the receiving server, for moves and read-only replication.
type VolInstallArgs struct {
	Volume   uint32
	Name     string
	ReadOnly bool
}

func (a VolInstallArgs) Encode(e *wire.Encoder) {
	e.U32(a.Volume)
	e.String(a.Name)
	e.Bool(a.ReadOnly)
}

// DecodeVolInstallArgs unmarshals VolInstallArgs.
func DecodeVolInstallArgs(d *wire.Decoder) VolInstallArgs {
	return VolInstallArgs{Volume: d.U32(), Name: d.String(), ReadOnly: d.Bool()}
}
