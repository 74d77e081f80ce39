package itcfs

import (
	"testing"

	"itcfs/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running: a real
// cell's server, a connection it serves, or a workstation's peer or the
// watch Venus keeps on it, outliving the test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
