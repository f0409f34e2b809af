// Package stats provides the aggregation helpers the evaluation uses:
// geometric means (the paper's aggregate metric) and small utilities.
package stats

import (
	"fmt"
	"math"
)

// Geomean returns the geometric mean of xs; it panics on non-positive
// inputs since ratios of cycles/energy are always positive.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// MeanAbsErr returns mean |a-b|/b over paired slices — the validation
// error metric of Table 1.
func MeanAbsErr(got, want []float64) float64 {
	if len(got) != len(want) || len(got) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range got {
		sum += math.Abs(got[i]-want[i]) / want[i]
	}
	return sum / float64(len(got))
}

// MinMax returns the extremes of xs.
func MinMax(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
