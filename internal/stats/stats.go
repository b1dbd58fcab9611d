// Package stats provides the small statistical helpers the experiment
// harness reports with: means, relative errors, and Pearson correlation
// (for the paper's correlation diagrams, Figures 11 and 12).
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RelativeError returns (predicted - measured) / measured, the signed
// relative error convention of the paper (negative numbers are
// underestimations). It panics when measured is zero.
func RelativeError(predicted, measured float64) float64 {
	if measured == 0 {
		panic("stats: relative error against zero measurement")
	}
	return (predicted - measured) / measured
}

// Pearson returns the Pearson correlation coefficient between xs and
// ys. It returns 0 when either series is constant, and panics when the
// series lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: series lengths differ: %d vs %d", len(xs), len(ys)))
	}
	if len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
