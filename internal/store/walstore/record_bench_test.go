package walstore

import (
	"fmt"
	"testing"

	"itcfs/internal/store"
	"itcfs/internal/volume"
)

// BenchmarkCommit is what Store.Commit costs, by the size of the file the
// commit carries: the record built, stamped and appended to the log, on a
// MemFS and without an fsync. Appending to a file on disk allocates nothing,
// so the log is given room: it holds 16 records before the timer starts,
// has room for 8 more, and is cut back to the 16, outside the timer, when
// they fill it. A MemFS file cut to half its array or more keeps the array,
// so every commit appends into the same memory, and what the benchmark
// allocates is the store's own.
func BenchmarkCommit(b *testing.B) {
	for _, size := range []int{256, 4 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		c := store.Commit{
			Vol:  7,
			Meta: []volume.VnodeMeta{{Vnode: 2, Meta: make([]byte, 60)}},
			Data: []volume.VnodeData{{Vnode: 2, Data: make([]byte, size)}},
		}
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			fsys := store.NewMemFS()
			s, err := Open(fsys)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			commit := func() {
				if err := s.Commit(c); err != nil {
					b.Fatal(err)
				}
			}
			const kept, room = 16, 8
			for range kept {
				commit()
			}
			record := recPrefix + c.EncodedSize()
			fsys.Grow(walName, room*record)
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%room == 0 {
					b.StopTimer()
					if err := fsys.Truncate(walName, int64(len(walMagic)+kept*record)); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				commit()
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
