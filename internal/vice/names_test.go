package vice

import (
	"bytes"
	"fmt"
	"testing"

	"itcfs/internal/proto"
)

// hostileNames are not directory-entry names: unixfs.Clean removes each of
// them from a pathname before any walk, so an entry under one could never
// be reached again.
var hostileNames = []string{"", ".", "..", "a/b", "/", "x/", "/x"}

// TestHostileNamesRefused enters each hostile name through every operation
// that puts a name into a directory, where the input arrives: at the
// dispatcher, as a user who holds insert rights on the directory. Each must
// answer CodeBadRequest and leave the directory as it was.
func TestHostileNamesRefused(t *testing.T) {
	for _, mode := range []Mode{Prototype, Revised} {
		c := newCell(t, mode, 1)
		c.mkVolume(t, "u", "/u", "satya", 0)
		c.store(t, "satya", "/u/f", []byte("contents"))
		before, dirStatus := c.fetch(t, "satya", "/u")
		_, fileStatus := c.fetch(t, "satya", "/u/f")

		// The prototype names things by path; revised Venus sends FIDs.
		dir, file := pathRef("/u"), pathRef("/u/f")
		if mode == Revised {
			dir, file = proto.Ref{FID: dirStatus.FID}, proto.Ref{FID: fileStatus.FID}
		}
		for _, name := range hostileNames {
			for _, op := range []struct {
				what string
				op   uint16
				body []byte
			}{
				{"Create", proto.OpCreate, proto.Marshal(proto.NameArgs{Dir: dir, Name: name, Mode: 0o644})},
				{"MakeDir", proto.OpMakeDir, proto.Marshal(proto.NameArgs{Dir: dir, Name: name, Mode: 0o755})},
				{"Symlink", proto.OpSymlink, proto.Marshal(proto.SymlinkArgs{Dir: dir, Name: name, Target: "/u/f"})},
				{"Link", proto.OpLink, proto.Marshal(proto.LinkArgs{Dir: dir, Name: name, Target: file})},
				{"Rename", proto.OpRename, proto.Marshal(proto.RenameArgs{FromDir: dir, FromName: "f", ToDir: dir, ToName: name})},
			} {
				t.Run(fmt.Sprintf("mode%d/%s/%q", mode, op.what, name), func(t *testing.T) {
					wantCode(t, c.call("satya", 0, op.op, op.body, nil), proto.CodeBadRequest)
					after, st := c.fetch(t, "satya", "/u")
					if !bytes.Equal(after, before) || st.Version != dirStatus.Version {
						got, _ := proto.Unmarshal(after, proto.DecodeDirEntries)
						t.Fatalf("refused %s left the directory changed: version %d -> %d, now %+v",
							op.what, dirStatus.Version, st.Version, got)
					}
				})
			}
		}
	}
}
