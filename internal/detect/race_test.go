//go:build race

package detect

func init() { raceEnabled = true }
