//go:build race

package dpcgra

// raceEnabled reports a -race build, whose sync.Pool drops a random
// quarter of what is put back: counts of allocations made through a
// pool do not repeat there.
const raceEnabled = true
