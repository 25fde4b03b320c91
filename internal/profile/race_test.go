//go:build race

package profile

func init() { raceEnabled = true }
