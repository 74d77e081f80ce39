package replica

import (
	"errors"
	"reflect"
	"testing"
)

func TestPropagateConfirmsInOrder(t *testing.T) {
	c := NewController("s0", nil, nil)
	c.Begin(7, "bin.ro", "/bin-ro", []string{"s1", "s2", "s3"})
	var pushed []string
	if err := c.Propagate(7, func(s string) error {
		pushed = append(pushed, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pushed, []string{"s1", "s2", "s3"}) {
		t.Fatalf("pushed %v", pushed)
	}
	if p := c.Pending(7); len(p) != 0 {
		t.Fatalf("pending after full propagation: %v", p)
	}
	if inc := c.Incomplete(); len(inc) != 0 {
		t.Fatalf("incomplete: %v", inc)
	}
}

func TestPropagateResumesAfterFailure(t *testing.T) {
	c := NewController("s0", nil, nil)
	c.Begin(7, "bin.ro", "/bin-ro", []string{"s1", "s2", "s3"})

	boom := errors.New("s2 unreachable")
	var pushed []string
	err := c.Propagate(7, func(s string) error {
		pushed = append(pushed, s)
		if s == "s2" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !reflect.DeepEqual(pushed, []string{"s1", "s2"}) {
		t.Fatalf("first attempt pushed %v", pushed)
	}
	if p := c.Pending(7); !reflect.DeepEqual(p, []string{"s2", "s3"}) {
		t.Fatalf("pending = %v, want [s2 s3]", p)
	}
	if inc := c.Incomplete(); !reflect.DeepEqual(inc, []uint32{7}) {
		t.Fatalf("incomplete = %v", inc)
	}

	// Retry pushes only the replicas that never confirmed.
	pushed = nil
	if err := c.Propagate(7, func(s string) error {
		pushed = append(pushed, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pushed, []string{"s2", "s3"}) {
		t.Fatalf("resume pushed %v, want [s2 s3]", pushed)
	}
	if p := c.Pending(7); len(p) != 0 {
		t.Fatalf("pending after resume: %v", p)
	}
}

func TestBeginAgainResetsPending(t *testing.T) {
	c := NewController("s0", nil, nil)
	c.Begin(7, "bin.ro", "/bin-ro", []string{"s1", "s2"})
	if err := c.Propagate(7, func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// A resume after recovery may re-register only the missing subset.
	c.Begin(7, "bin.ro", "/bin-ro", []string{"s2"})
	if p := c.Pending(7); !reflect.DeepEqual(p, []string{"s2"}) {
		t.Fatalf("pending = %v, want [s2]", p)
	}
	rels := c.Releases()
	if len(rels) != 1 || rels[0].Volume != 7 || rels[0].Path != "/bin-ro" {
		t.Fatalf("releases = %+v", rels)
	}
}

func TestPropagateUnknownVolume(t *testing.T) {
	c := NewController("s0", nil, nil)
	if err := c.Propagate(9, func(string) error { return nil }); err == nil {
		t.Fatal("expected error for unknown release")
	}
}
