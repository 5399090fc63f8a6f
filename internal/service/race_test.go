//go:build race

package service

// The race detector makes sync.Pool drop items at random, so allocation
// counts are not measurements in a race build.
func init() { raceEnabled = true }
