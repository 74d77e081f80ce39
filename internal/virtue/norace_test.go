//go:build !race

package virtue

const raceEnabled = false
