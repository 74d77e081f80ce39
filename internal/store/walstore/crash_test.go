package walstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/store"
	"itcfs/internal/volume"
)

// crashWorkload drives one store through a fixed operation sequence with
// seeded file contents, syncing after every operation, stopping at the first
// error. states[k] is the volume image after k acknowledged operations
// (states[0] = nil: no volume yet). It returns how many operations were
// fully acknowledged (synced) and how many were at least attempted — the
// recoverable range under a crash.
func crashWorkload(seed int64, fsys store.FS) (states [][]byte, acked, attempted int, err error) {
	states = [][]byte{nil} // a crash during Open itself leaves no acked state
	s, err := Open(fsys)
	if err != nil {
		return states, 0, 0, fmt.Errorf("open: %w", err)
	}
	if _, err := s.Recover(); err != nil {
		return states, 0, 0, fmt.Errorf("recover: %w", err)
	}

	var tick int64
	acl := prot.NewACL()
	acl.Grant("satya", prot.RightsAll)
	v := volume.New(3, "vol", acl, 0, "satya", func() int64 { tick++; return tick })
	v.EnableDirtyTracking()
	v.TakeDirty()

	// Seeded contents: sizes and bytes differ per seed, the op sequence
	// does not (so every seed exposes the same class of crash points).
	rng := seed
	content := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			rng = rng*6364136223846793005 + 1442695040888963407
			b[i] = byte(rng >> 33)
		}
		return b
	}

	var f1, f2, dir proto.FID
	ops := []func() error{
		func() error { return s.BeginVolume(3, v.Serialize()) },
		func() error {
			vn, err := v.Create(v.Root(), "f1", 0o644, "satya")
			if err == nil {
				f1 = vn.Status.FID
			}
			return err
		},
		func() error { _, err := v.WriteData(f1, content(100+int(seed%7)*13)); return err },
		func() error {
			vn, err := v.MakeDir(v.Root(), "d", 0o755, "satya")
			if err == nil {
				dir = vn.Status.FID
			}
			return err
		},
		func() error {
			vn, err := v.Create(dir, "f2", 0o644, "satya")
			if err == nil {
				f2 = vn.Status.FID
			}
			return err
		},
		func() error { _, err := v.WriteData(f2, content(40)); return err },
		func() error { return v.Rename(v.Root(), "f1", dir, "f1r") },
		nil, // checkpoint, handled below
		func() error { _, err := v.WriteData(f2, content(220)); return err },
		func() error { return v.Remove(dir, "f1r") },
		// A directory edit of every shape: one name in and one out in one
		// edit (a rename over a name), and a directory removed with its
		// last name.
		func() error { _, err := v.Symlink(dir, "s", "/f2"); return err },
		func() error { return v.Rename(dir, "s", dir, "f2") },
		func() error { return v.Remove(dir, "f2") },
		func() error { return v.RemoveDir(v.Root(), "d") },
	}

	for i, op := range ops {
		attempted++
		if op == nil { // checkpoint: state is unchanged by it
			err = s.Checkpoint(store.Checkpoint{Volumes: []*volume.Volume{v}})
			states = append(states, states[len(states)-1])
		} else if i == 0 {
			err = op()
			states = append(states, v.Serialize())
		} else {
			if err = op(); err != nil {
				return states, acked, attempted, fmt.Errorf("op %d (in-memory): %w", i, err)
			}
			err = s.Commit(store.CommitOf(v))
			states = append(states, v.Serialize())
		}
		if err != nil {
			return states, acked, attempted, err
		}
		if err = s.Sync(); err != nil {
			return states, acked, attempted, err
		}
		acked++
	}
	return states, acked, attempted, nil
}

// recoveredImage reopens the survivors and returns the recovered volume's
// image (nil if no volume survived).
func recoveredImage(t *testing.T, fsys store.FS) []byte {
	t.Helper()
	s, err := Open(fsys)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	rec, err := s.Recover()
	if err != nil {
		t.Fatalf("recover after crash: %v", err)
	}
	switch len(rec.Volumes) {
	case 0:
		return nil
	case 1:
		return rec.Volumes[0].Serialize()
	default:
		t.Fatalf("recovered %d volumes, want ≤1", len(rec.Volumes))
		return nil
	}
}

// TestWALCrashProperty is the crash-injection suite: for three seeds it
// enumerates every durability event the workload generates, crashes on each,
// reopens what stable storage holds, and checks the recovered volume. The
// workload's commits carry directory edits of every shape, before and after
// its checkpoint.
//
// Strict discipline (unsynced bytes wholly lost): recovery yields exactly
// the acknowledged-operation prefix — no acked op lost, no unacked op
// visible. Generous discipline (a torn, bit-flipped tail survives): recovery
// yields some prefix between the acked and the attempted operation count —
// never a torn record's partial effect, never anything newer.
func TestWALCrashProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		// Count the crash points this seed's workload exposes.
		probe := store.NewFaultFS(seed, 0)
		if _, _, _, err := crashWorkload(seed, probe); err != nil {
			t.Fatalf("seed %d: fault-free workload failed: %v", seed, err)
		}
		events := probe.Events()
		if events < 10 {
			t.Fatalf("seed %d: only %d durability events", seed, events)
		}

		for crashAt := 1; crashAt <= events; crashAt++ {
			for _, strict := range []bool{true, false} {
				f := store.NewFaultFS(seed, crashAt)
				f.Strict = strict
				states, acked, attempted, err := crashWorkload(seed, f)
				if !errors.Is(err, store.ErrCrashed) {
					t.Fatalf("seed %d crashAt %d: err = %v", seed, crashAt, err)
				}
				got := recoveredImage(t, f.Survivors())

				if strict {
					if !bytes.Equal(got, states[acked]) {
						t.Fatalf("seed %d crashAt %d strict: recovered state is not the %d-op acked prefix",
							seed, crashAt, acked)
					}
					continue
				}
				ok := false
				for k := acked; k <= attempted && k < len(states); k++ {
					if bytes.Equal(got, states[k]) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("seed %d crashAt %d generous: recovered state matches no prefix in [%d, %d]",
						seed, crashAt, acked, attempted)
				}
			}
		}
	}
}
