//go:build race

package core

// Under the race detector sync.Pool drops a random share of what is put
// back, so allocation counts are not the program's.
func init() { raceEnabled = true }
