//go:build !race

package vice

const raceEnabled = false
