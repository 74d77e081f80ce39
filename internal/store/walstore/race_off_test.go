//go:build !race

package walstore

const raceEnabled = false
