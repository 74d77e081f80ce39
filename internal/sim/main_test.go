package sim

import (
	"testing"

	"itcfs/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running. Every
// simulated process is a coroutine on a goroutine of its own, so a test that
// ends its simulation with procs still parked (or spawns procs that never
// exit) leaks; the kernel's own tests must demonstrate the clean-exit
// discipline the rest of the tree relies on.
func TestMain(m *testing.M) { leakcheck.Main(m) }
