package main

import (
	"math"
	"slices"
)

// percentile returns the p-quantile of xs by the nearest-rank rule: the
// value at 1-based rank ⌈p·n⌉ of the sorted sample, or 0 for an empty
// sample. xs is left as it was.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	// The epsilon keeps p·n that is a whole number in exact arithmetic
	// (0.99·1000) from rounding up a rank in floating point.
	r := int(math.Ceil(p*float64(len(xs)) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > len(xs) {
		r = len(xs)
	}
	return xs[r-1]
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }
