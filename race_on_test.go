//go:build race

package itcfs_test

// raceEnabled tells the allocation gates that the race runtime's pools drop
// items at random, so they skip.
const raceEnabled = true
