//go:build race

package vice

func init() { raceEnabled = true }
