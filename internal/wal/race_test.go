//go:build race

package wal

// The race detector makes sync.Pool drop items at random, so a pooled
// buffer is allocated anew now and then: allocation pins do not hold.
func init() { raceEnabled = true }
