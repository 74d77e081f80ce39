//go:build race

package secure

func init() { raceEnabled = true }
