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

// crashWorkload drives one store through a fixed operation sequence on two
// volumes with seeded file contents, syncing after every operation, stopping
// at the first error. states[k] is the image of every volume after k
// acknowledged operations (states[0] = nil: no volume yet). It returns how
// many operations were fully acknowledged (synced) and how many were at
// least attempted — the recoverable range under a crash.
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
	newVolume := func(id uint32) *volume.Volume {
		v := volume.New(id, "vol", acl, 0, "satya", func() int64 { tick++; return tick })
		v.EnableDirtyTracking()
		v.TakeDirty()
		return v
	}
	v, w := newVolume(3), newVolume(4)
	var live []*volume.Volume // the volumes begun so far, ascending by ID

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

	// Each op changes one volume and returns it for its commit, or journals
	// itself and returns nil.
	begin := func(v *volume.Volume) func() (*volume.Volume, error) {
		return func() (*volume.Volume, error) {
			live = append(live, v)
			return nil, s.BeginVolume(v.ID(), v.Serialize())
		}
	}
	var f1, f2, g, dir proto.FID
	ops := []func() (*volume.Volume, error){
		begin(v),
		func() (*volume.Volume, error) {
			vn, err := v.Create(v.Root(), "f1", 0o644, "satya")
			if err == nil {
				f1 = vn.Status.FID
			}
			return v, err
		},
		func() (*volume.Volume, error) { _, err := v.WriteData(f1, content(100+int(seed%7)*13)); return v, err },
		begin(w),
		func() (*volume.Volume, error) {
			vn, err := w.Create(w.Root(), "g", 0o644, "satya")
			if err == nil {
				g = vn.Status.FID
			}
			return w, err
		},
		func() (*volume.Volume, error) {
			vn, err := v.MakeDir(v.Root(), "d", 0o755, "satya")
			if err == nil {
				dir = vn.Status.FID
			}
			return v, err
		},
		func() (*volume.Volume, error) {
			vn, err := v.Create(dir, "f2", 0o644, "satya")
			if err == nil {
				f2 = vn.Status.FID
			}
			return v, err
		},
		func() (*volume.Volume, error) { _, err := v.WriteData(f2, content(40)); return v, err },
		func() (*volume.Volume, error) { _, err := w.WriteData(g, content(60)); return w, err },
		func() (*volume.Volume, error) { return v, v.Rename(v.Root(), "f1", dir, "f1r") },
		nil, // checkpoint, handled below
		func() (*volume.Volume, error) { _, err := v.WriteData(f2, content(220)); return v, err },
		func() (*volume.Volume, error) { return w, w.Rename(w.Root(), "g", w.Root(), "h") },
		func() (*volume.Volume, error) { return v, v.Remove(dir, "f1r") },
		// A directory edit of every shape: one name in and one out in one
		// edit (a rename over a name), and a directory removed with its
		// last name.
		func() (*volume.Volume, error) { _, err := v.Symlink(dir, "s", "/f2"); return v, err },
		func() (*volume.Volume, error) { return v, v.Rename(dir, "s", dir, "f2") },
		func() (*volume.Volume, error) { return v, v.Remove(dir, "f2") },
		func() (*volume.Volume, error) { return v, v.RemoveDir(v.Root(), "d") },
	}

	for i, op := range ops {
		attempted++
		if op == nil { // checkpoint: state is unchanged by it
			err = s.Checkpoint(store.Checkpoint{Volumes: live})
		} else {
			var changed *volume.Volume
			changed, err = op()
			if changed != nil {
				if err != nil {
					return states, acked, attempted, fmt.Errorf("op %d (in-memory): %w", i, err)
				}
				err = s.Commit(store.CommitOf(changed))
			}
		}
		states = append(states, imageOf(live))
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

// imageOf is the images of vols, one after another (nil for none).
func imageOf(vols []*volume.Volume) []byte {
	var img []byte
	for _, v := range vols {
		img = append(img, v.Serialize()...)
	}
	return img
}

// recoveredImage reopens the survivors and returns the recovered volumes'
// images, as imageOf gives them.
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
	return imageOf(rec.Volumes)
}

// TestWALCrashProperty is the crash-injection suite: for three seeds it
// enumerates every durability event the workload generates, crashes on each,
// reopens what stable storage holds, and checks the recovered volumes. The
// workload's commits carry directory edits of every shape, before and after
// its checkpoint of two volumes.
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
