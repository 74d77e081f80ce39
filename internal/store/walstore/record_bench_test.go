package walstore

import (
	"fmt"
	"testing"

	"itcfs/internal/store"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// BenchmarkCommit is the measurement behind pooledRecord and wire.maxPooled:
// what building a commit's record costs in a buffer that is reused against
// one allocated for it, by record size. The record is built exactly as
// Commit builds it — sized, encoded, stamped, checksummed — and not
// appended, so the share an allocation has of a real commit (a write, then
// an fsync) is smaller still.
func BenchmarkCommit(b *testing.B) {
	build := func(e *wire.Encoder, c store.Commit) {
		e.Grow(recPrefix + c.EncodedSize())
		var blank [recPrefix]byte
		e.Raw(blank[:])
		c.Encode(e)
		finishRecord(e.Buf(), 1, kindCommit)
	}
	for _, size := range []int{256, 4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		c := store.Commit{
			Vol:  7,
			Meta: []volume.VnodeMeta{{Vnode: 2, Meta: make([]byte, 60)}},
			Data: []volume.VnodeData{{Vnode: 2, Data: make([]byte, size)}},
		}
		b.Run(fmt.Sprintf("reused/%d", size), func(b *testing.B) {
			var e wire.Encoder
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Reset()
				build(&e, c)
			}
		})
		b.Run(fmt.Sprintf("fresh/%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var e wire.Encoder
				build(&e, c)
			}
		})
	}
}

// BenchmarkCheckpoint is what building a checkpoint file costs, by the
// volume's file contents: "live" encodes the volume straight into the file,
// as buildCheckpoint does; "images" serializes it to an image first and
// appends that to a log in memory, as referenceCheckpoint does. The file is
// not written.
func BenchmarkCheckpoint(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20, 16 << 20} {
		vols := []*volume.Volume{filesVol(b, 3, 4, make([]byte, size/4))}
		b.Run(fmt.Sprintf("live/%d", size), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := buildCheckpoint(1, store.Checkpoint{Volumes: vols}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("images/%d", size), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				referenceCheckpoint(1, nil, nil, vols)
			}
		})
	}
}
