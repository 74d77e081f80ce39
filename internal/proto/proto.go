// Package proto defines the Vice-Virtue file system interface (§2.3): the
// operation codes, identifiers, status records and message formats that
// cross the boundary of trustworthiness between workstations and Vice. The
// interface is deliberately narrow and stable — supporting a new kind of
// workstation means implementing exactly this protocol.
//
// Two addressing modes coexist, matching the paper's two implementations:
// the prototype presents entire pathnames to Vice and the server walks them;
// the revised implementation names files by fixed-length unique file
// identifiers (FIDs), with workstations doing pathname traversal themselves
// against cached directories (§5.3). A Ref carries either form.
package proto

import (
	"errors"
	"fmt"
	"strings"

	"itcfs/internal/prot"
	"itcfs/internal/wire"
)

// Op codes of the Vice interface.
const (
	// File and directory operations.
	OpFetch       rpcOp = 10 // whole-file fetch (data as bulk side effect)
	OpStore       rpcOp = 11 // whole-file store on close
	OpFetchStatus rpcOp = 12 // status only ("GetFileStat" in §5.2)
	OpSetStatus   rpcOp = 13
	OpTestValid   rpcOp = 14 // cache validity check (§5.2's dominant call)
	OpCreate      rpcOp = 15
	OpMakeDir     rpcOp = 16
	OpRemove      rpcOp = 17
	OpRemoveDir   rpcOp = 18
	OpRename      rpcOp = 19
	OpSymlink     rpcOp = 20
	OpLink        rpcOp = 21
	OpSetACL      rpcOp = 22
	OpGetACL      rpcOp = 23

	// OpBulkTestValid validates a batch of cached (Ref, version) pairs in
	// one round trip: the revalidation storm after reconnection or a TTL
	// sweep collapses from one call per entry to one call per custodian.
	OpBulkTestValid rpcOp = 24

	// Locking (§3.6).
	OpSetLock     rpcOp = 30
	OpReleaseLock rpcOp = 31

	// Location (§3.1).
	OpGetCustodian rpcOp = 40

	// Callbacks, server -> workstation (§3.2 revised validation).
	OpCallbackBreak rpcOp = 50
	// OpBulkBreak invalidates a batch of promises held by one workstation in
	// a single callback RPC, coalescing the per-promise break storm.
	OpBulkBreak rpcOp = 51

	// Volume administration (§5.3).
	OpVolCreate   rpcOp = 60
	OpVolClone    rpcOp = 61
	OpVolStatus   rpcOp = 62
	OpVolSetQuota rpcOp = 63
	OpVolOffline  rpcOp = 64
	OpVolOnline   rpcOp = 65
	OpVolMove     rpcOp = 66
	OpVolSalvage  rpcOp = 67 // crash recovery: check and repair volume invariants

	// Protection server (§3.4).
	OpProtMutate   rpcOp = 70
	OpProtSnapshot rpcOp = 71

	// Server-to-server.
	OpLocInstall  rpcOp = 80 // push a location-database update
	OpVolInstall  rpcOp = 81 // receive a moved or replicated volume image
	OpProtInstall rpcOp = 82 // push a protection-database mutation to a replica
)

// rpcOp aliases the transport's op type without importing it, keeping proto
// dependency-free of rpc. The values above fit any uint16-compatible op.
type rpcOp = uint16

// FID is the fixed-length unique file identifier of the revised
// implementation. It is invariant across renames, which is what makes
// renaming arbitrary subtrees possible (§5.3).
type FID struct {
	Volume uint32 // the volume containing the file
	Vnode  uint32 // index within the volume
	Uniq   uint32 // generation number, so deleted vnodes are not confused
}

// IsZero reports whether the FID is unset.
func (f FID) IsZero() bool { return f == FID{} }

func (f FID) String() string {
	return fmt.Sprintf("%d.%d.%d", f.Volume, f.Vnode, f.Uniq)
}

// Encode marshals the FID.
func (f FID) Encode(e *wire.Encoder) {
	e.U32(f.Volume)
	e.U32(f.Vnode)
	e.U32(f.Uniq)
}

// DecodeFID unmarshals a FID.
func DecodeFID(d *wire.Decoder) FID {
	return FID{Volume: d.U32(), Vnode: d.U32(), Uniq: d.U32()}
}

// Ref names a file in either addressing mode: a whole pathname relative to
// the Vice root (prototype), or a FID (revised).
type Ref struct {
	Path string
	FID  FID
}

// ByFID reports whether the reference carries a FID.
func (r Ref) ByFID() bool { return !r.FID.IsZero() }

func (r Ref) String() string {
	if r.ByFID() {
		return r.FID.String()
	}
	return r.Path
}

// Encode marshals the reference.
func (r Ref) Encode(e *wire.Encoder) {
	e.String(r.Path)
	r.FID.Encode(e)
}

// DecodeRef unmarshals a reference.
func DecodeRef(d *wire.Decoder) Ref {
	return Ref{Path: d.String(), FID: DecodeFID(d)}
}

// FileType discriminates Vice file kinds.
type FileType uint8

// Vice file kinds.
const (
	TypeFile FileType = iota
	TypeDir
	TypeSymlink
)

// Status is the Vice status record of a file — the contents of the .admin
// file in the prototype's storage representation (§3.5.2).
type Status struct {
	FID     FID
	Type    FileType
	Size    int64
	Version uint64 // data version; cache validation compares this
	Mtime   int64
	Owner   string
	Mode    uint16 // per-file protection bits (revised implementation, §5.1)
	Links   int
	Target  string // symlink target
}

// Encode marshals the status record.
func (s Status) Encode(e *wire.Encoder) {
	s.FID.Encode(e)
	e.U8(uint8(s.Type))
	e.I64(s.Size)
	e.U64(s.Version)
	e.I64(s.Mtime)
	e.String(s.Owner)
	e.U16(s.Mode)
	e.Int(s.Links)
	e.String(s.Target)
}

// DecodeStatus unmarshals a status record.
func DecodeStatus(d *wire.Decoder) Status {
	return Status{
		FID:     DecodeFID(d),
		Type:    FileType(d.U8()),
		Size:    d.I64(),
		Version: d.U64(),
		Mtime:   d.I64(),
		Owner:   d.String(),
		Mode:    d.U16(),
		Links:   d.Int(),
		Target:  d.String(),
	}
}

// Service-level error codes carried in rpc.Response.Code.
const (
	CodeOK          uint16 = 0
	CodeNoEnt       uint16 = 1
	CodeExist       uint16 = 2
	CodeAccess      uint16 = 3
	CodeNotDir      uint16 = 4
	CodeIsDir       uint16 = 5
	CodeNotEmpty    uint16 = 6
	CodeQuota       uint16 = 7
	CodeOffline     uint16 = 8
	CodeWrongServer uint16 = 9 // body carries the custodian's name
	CodeLocked      uint16 = 10
	CodeStale       uint16 = 11
	CodeReadOnly    uint16 = 12
	CodeBadRequest  uint16 = 13
	CodeNotAllowed  uint16 = 14
	CodeInternal    uint16 = 15
	CodeLoop        uint16 = 16
)

// Sentinel errors corresponding to the codes above.
var (
	ErrNoEnt       = errors.New("vice: no such file or directory")
	ErrExist       = errors.New("vice: file exists")
	ErrAccess      = errors.New("vice: permission denied")
	ErrNotDir      = errors.New("vice: not a directory")
	ErrIsDir       = errors.New("vice: is a directory")
	ErrNotEmpty    = errors.New("vice: directory not empty")
	ErrQuota       = errors.New("vice: volume quota exceeded")
	ErrOffline     = errors.New("vice: volume offline")
	ErrWrongServer = errors.New("vice: not the custodian")
	ErrLocked      = errors.New("vice: file is locked")
	ErrStale       = errors.New("vice: stale identifier")
	ErrReadOnly    = errors.New("vice: read-only volume")
	ErrBadRequest  = errors.New("vice: malformed request")
	ErrNotAllowed  = errors.New("vice: operation not permitted")
	ErrInternal    = errors.New("vice: internal error")
	ErrLoop        = errors.New("vice: too many levels of symbolic links")
)

var codeToErr = map[uint16]error{
	CodeNoEnt:       ErrNoEnt,
	CodeExist:       ErrExist,
	CodeAccess:      ErrAccess,
	CodeNotDir:      ErrNotDir,
	CodeIsDir:       ErrIsDir,
	CodeNotEmpty:    ErrNotEmpty,
	CodeQuota:       ErrQuota,
	CodeOffline:     ErrOffline,
	CodeWrongServer: ErrWrongServer,
	CodeLocked:      ErrLocked,
	CodeStale:       ErrStale,
	CodeReadOnly:    ErrReadOnly,
	CodeBadRequest:  ErrBadRequest,
	CodeNotAllowed:  ErrNotAllowed,
	CodeInternal:    ErrInternal,
	CodeLoop:        ErrLoop,
}

var errToCode = func() map[error]uint16 {
	m := make(map[error]uint16, len(codeToErr))
	for c, e := range codeToErr {
		m[e] = c
	}
	return m
}()

// CodeToErr converts a service code to its sentinel error (nil for CodeOK).
// The detail string, if any, is attached via wrapping. A server sends its
// error's whole text as the detail, which starts with the sentinel's own
// text; that copy is dropped, so the sentinel is printed once.
func CodeToErr(code uint16, detail string) error {
	if code == CodeOK {
		return nil
	}
	base, ok := codeToErr[code]
	if !ok {
		base = ErrInternal
	}
	if rest, ok := strings.CutPrefix(detail, base.Error()); ok && (rest == "" || strings.HasPrefix(rest, ": ")) {
		detail = strings.TrimPrefix(rest, ": ")
	}
	if detail == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, detail)
}

// ErrToCode converts an error to its service code. Unrecognized errors map
// to CodeInternal.
func ErrToCode(err error) uint16 {
	if err == nil {
		return CodeOK
	}
	for base, code := range errToCode {
		if errors.Is(err, base) {
			return code
		}
	}
	return CodeInternal
}

// WrongServer wraps ErrWrongServer with the custodian hint the server
// returned ("if a server receives a request for a file for which it is not
// the custodian, it will respond with the identity of the appropriate
// custodian", §3.1).
type WrongServer struct {
	Custodian string
}

func (w *WrongServer) Error() string {
	return fmt.Sprintf("vice: not the custodian (try %s)", w.Custodian)
}

// Unwrap makes errors.Is(err, ErrWrongServer) hold.
func (w *WrongServer) Unwrap() error { return ErrWrongServer }

// ACLEncode marshals an access list for GetACL/SetACL bodies.
func ACLEncode(a prot.ACL) []byte {
	var e wire.Encoder
	a.Encode(&e)
	return append([]byte(nil), e.Buf()...)
}

// ACLDecode unmarshals an access list.
func ACLDecode(data []byte) (prot.ACL, error) {
	d := wire.NewDecoder(data)
	a := prot.DecodeACL(d)
	if err := d.Close(); err != nil {
		return prot.ACL{}, fmt.Errorf("proto: corrupt ACL: %w", err)
	}
	return a, nil
}
