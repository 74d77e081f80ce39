//go:build race

package virtue

// raceEnabled: the race detector's instrumentation allocates, and sync.Pool
// drops items at random under it, so exact object counts do not hold.
const raceEnabled = true
