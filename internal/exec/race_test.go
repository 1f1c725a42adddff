//go:build race

package exec_test

func init() { raceEnabled = true }
