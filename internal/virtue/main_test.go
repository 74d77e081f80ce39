package virtue

import (
	"testing"

	"itcfs/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running: a
// server's connection, a workstation's peer or the watch Venus keeps on it.
func TestMain(m *testing.M) { leakcheck.Main(m) }
