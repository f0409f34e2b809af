//go:build !race

package dpcgra

const raceEnabled = false
