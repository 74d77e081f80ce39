package walstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"itcfs/internal/store"
	"itcfs/internal/volume"
)

// TestConcurrentCommitsShareTheRecordBuffer has four goroutines journal a
// volume each through one store, as Vice's handlers do under its gate:
// small commits (a create) between file-sized ones of growing and shrinking
// sizes, each goroutine syncing as it goes, and one goroutine taking a
// checkpoint of every volume part way, which drops the record buffer under
// them. Every record is built in the store's one buffer, so a record encoded
// outside mu, or appended while another is being built, shows up here: as a
// race under -race, and as a recovered volume that differs from the live one
// byte for byte.
func TestConcurrentCommitsShareTheRecordBuffer(t *testing.T) {
	const (
		writers = 4
		ops     = 24
	)
	fsys := store.NewMemFS()
	s, _ := open(t, fsys)
	vols := make([]*volume.Volume, writers)
	locks := make([]sync.Mutex, writers) // a volume's mutation and its commit are one step
	for g := range vols {
		vols[g] = newVol(t, uint32(10+g))
		if err := s.BeginVolume(vols[g].ID(), vols[g].Serialize()); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := func() error {
		for g := range locks {
			locks[g].Lock()
			defer locks[g].Unlock()
		}
		return s.Checkpoint(store.Checkpoint{Volumes: vols})
	}
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for g := range vols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- func() error {
				v := vols[g]
				for i := 0; i < ops; i++ {
					locks[g].Lock()
					vn, err := v.Create(v.Root(), fmt.Sprintf("f%02d", i), 0o644, "satya")
					if err == nil {
						err = s.Commit(store.CommitOf(v))
					}
					if err == nil && i%3 != 2 {
						// 16 KiB to 1 MiB, each writer's sizes out of step
						// with the others'.
						size := (16 << 10) << ((g + i) % 7)
						_, err = v.WriteData(vn.Status.FID, bytes.Repeat([]byte{byte(g<<5 | i)}, size))
						if err == nil {
							err = s.Commit(store.CommitOf(v))
						}
					}
					locks[g].Unlock()
					if err == nil && i%2 == 1 {
						err = s.Sync()
					}
					if err == nil && g == 0 && i == ops/2 {
						err = checkpoint()
					}
					if err != nil {
						return fmt.Errorf("writer %d, op %d: %w", g, i, err)
					}
				}
				return s.Sync()
			}()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	_, rec := open(t, fsys)
	if rec.Report.CheckpointSeq == 0 || rec.Report.DiscardedRecords != 0 || len(rec.Report.Notes) != 0 {
		t.Fatalf("recovery report: %v", rec.Report.Lines())
	}
	if len(rec.Volumes) != writers {
		t.Fatalf("recovered %d volumes, want %d", len(rec.Volumes), writers)
	}
	for g, v := range rec.Volumes {
		if !bytes.Equal(v.Serialize(), vols[g].Serialize()) {
			t.Fatalf("volume %d recovered from the log differs from the live one", v.ID())
		}
	}
}
