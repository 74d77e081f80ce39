//go:build race

package vice

// raceEnabled tells the tests that hold several hundred MiB that the race
// runtime multiplies what memory costs, so they skip.
const raceEnabled = true
