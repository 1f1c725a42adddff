//go:build race

package window_test

func init() { raceEnabled = true }
