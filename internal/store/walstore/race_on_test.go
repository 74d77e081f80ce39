//go:build race

package walstore

// raceEnabled tells the tests that hold several hundred MiB that the race
// runtime multiplies what memory costs, so they skip.
const raceEnabled = true
