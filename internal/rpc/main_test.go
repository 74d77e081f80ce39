package rpc

import (
	"testing"

	"itcfs/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running — a read
// loop or a worker that outlives its peer's Close.
func TestMain(m *testing.M) { leakcheck.Main(m) }
