package vice

import (
	"testing"

	"itcfs/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running —
// a server that outlives its Close.
func TestMain(m *testing.M) { leakcheck.Main(m) }
