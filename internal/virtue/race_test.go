//go:build race

package virtue

func init() { raceEnabled = true }
