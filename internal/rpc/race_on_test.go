//go:build race

package rpc

// raceEnabled tells the allocation gates that sync.Pool is dropping items at
// random (the race runtime does, to shake out misuse), so exact object
// counts do not hold.
const raceEnabled = true
