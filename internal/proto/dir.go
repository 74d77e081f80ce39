package proto

import (
	"errors"
	"slices"
	"strings"

	"itcfs/internal/wire"
)

// DirEntry is one entry in a Vice directory. A directory is a []DirEntry in
// strictly ascending name order wherever it lives: in the server's vnode, in
// the entry table of a volume image or journal record, in the listing a fetch
// returns, and in the copy a revised Venus walks client-side (§5.3) and
// patches after its own mutations. Every edit goes through InsertDirEntry and
// RemoveDirEntry and the decoder refuses any other order, so a station's
// patched listing is the list a fetch of the directory would return.
type DirEntry struct {
	Name string
	FID  FID
	Type FileType
}

// dirEntryMin is the smallest encoded entry: an empty name's length prefix,
// a FID and a type.
const dirEntryMin = 4 + 12 + 1

var errDirOrder = errors.New("proto: directory entries not in ascending name order")

func searchDir(entries []DirEntry, name string) (int, bool) {
	return slices.BinarySearchFunc(entries, name, func(de DirEntry, name string) int {
		return strings.Compare(de.Name, name)
	})
}

// LookupDirEntry finds name in a directory.
func LookupDirEntry(entries []DirEntry, name string) (DirEntry, bool) {
	if i, ok := searchDir(entries, name); ok {
		return entries[i], true
	}
	return DirEntry{}, false
}

// InsertDirEntry puts de in its place among entries, replacing an entry of
// the same name, and returns the edited directory. Like append, it may write
// to entries' backing array.
func InsertDirEntry(entries []DirEntry, de DirEntry) []DirEntry {
	i, ok := searchDir(entries, de.Name)
	if ok {
		entries[i] = de
		return entries
	}
	return slices.Insert(entries, i, de)
}

// RemoveDirEntry removes name from entries, if it is there, and returns the
// edited directory. It writes to entries' backing array.
func RemoveDirEntry(entries []DirEntry, name string) []DirEntry {
	if i, ok := searchDir(entries, name); ok {
		return slices.Delete(entries, i, i+1)
	}
	return entries
}

// DirSize is the length of a directory's encoded entry table: the bytes a
// fetch of it returns, and so its Status.Size.
func DirSize(entries []DirEntry) int64 {
	n := int64(4)
	for _, de := range entries {
		n += dirEntryMin + int64(len(de.Name))
	}
	return n
}

// EncodeDirEntries appends a directory's entry table to e: the count, then
// each entry's name, FID and type.
func EncodeDirEntries(e *wire.Encoder, entries []DirEntry) {
	e.ListLen(len(entries))
	for _, de := range entries {
		e.String(de.Name)
		de.FID.Encode(e)
		e.U8(uint8(de.Type))
	}
}

// DecodeDirEntries reads an entry table. The count is untrusted: it is
// checked against the bytes left before anything is allocated for it. A
// table whose names are not strictly ascending fails d, as a short one does.
func DecodeDirEntries(d *wire.Decoder) []DirEntry {
	n := d.ListLen(dirEntryMin)
	entries := make([]DirEntry, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		de := DirEntry{Name: d.String(), FID: DecodeFID(d), Type: FileType(d.U8())}
		if i > 0 && de.Name <= entries[i-1].Name {
			d.Fail(errDirOrder)
		}
		entries = append(entries, de)
	}
	return entries
}

// DirListing returns a directory's contents as a fetch carries them: its
// entry table, in a slice of its own.
func DirListing(entries []DirEntry) []byte {
	e := wire.GetEncoder()
	EncodeDirEntries(e, entries)
	out := append([]byte(nil), e.Buf()...)
	wire.PutEncoder(e)
	return out
}
