//go:build race

package bolt

func init() { raceEnabled = true }
