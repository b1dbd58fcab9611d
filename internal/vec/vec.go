// Package vec provides small vector-math helpers used throughout the
// index and prediction code: squared Euclidean distances, per-dimension
// means and variances, and argmax-variance selection.
//
// Points are represented as []float64 slices of a common dimensionality;
// collections of points are [][]float64. The helpers are deliberately
// allocation-free on the hot paths (distance and variance computation)
// because the bulk loader and the query engine call them millions of
// times per experiment.
package vec

import (
	"fmt"
	"math"
)

// SqDist returns the squared Euclidean distance between a and b.
// It panics if the slices have different lengths; mismatched
// dimensionality is always a programming error in this code base.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 {
	return math.Sqrt(SqDist(a, b))
}

// Finite reports whether every coordinate of a is a finite number —
// neither NaN nor ±Inf. The API boundaries reject points and queries
// that are not: a NaN distance compares false against every bound, so
// a search would silently drop candidates instead of failing.
func Finite(a []float64) bool {
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Clone returns a copy of a.
func Clone(a []float64) []float64 {
	c := make([]float64, len(a))
	copy(c, a)
	return c
}

// ClonePoints deep-copies a set of points in two allocations: one
// backing array holds every row, and each row's capacity ends at its
// length, so appending to one copy never overwrites the next.
func ClonePoints(pts [][]float64) [][]float64 {
	n := 0
	for _, p := range pts {
		n += len(p)
	}
	backing := make([]float64, n)
	out := make([][]float64, len(pts))
	for i, p := range pts {
		row := backing[:len(p):len(p)]
		copy(row, p)
		out[i] = row
		backing = backing[len(p):]
	}
	return out
}

// Mean computes the per-dimension mean of pts into out.
// out must have the dimensionality of the points. It panics on an
// empty point set.
func Mean(pts [][]float64, out []float64) {
	if len(pts) == 0 {
		panic("vec: Mean of empty point set")
	}
	for i := range out {
		out[i] = 0
	}
	for _, p := range pts {
		for i, v := range p {
			out[i] += v
		}
	}
	n := float64(len(pts))
	for i := range out {
		out[i] /= n
	}
}

// Variance computes the per-dimension (population) variance of pts
// into out, using mean as the per-dimension mean. out and mean must
// have the dimensionality of the points.
func Variance(pts [][]float64, mean, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for _, p := range pts {
		for i, v := range p {
			d := v - mean[i]
			out[i] += d * d
		}
	}
	n := float64(len(pts))
	for i := range out {
		out[i] /= n
	}
}

// MaxVarianceDim returns the dimension with the highest variance over
// pts. Ties resolve to the lowest dimension index. It panics on an
// empty point set.
func MaxVarianceDim(pts [][]float64) int {
	if len(pts) == 0 {
		panic("vec: MaxVarianceDim of empty point set")
	}
	dim := len(pts[0])
	mean := make([]float64, dim)
	variance := make([]float64, dim)
	Mean(pts, mean)
	Variance(pts, mean, variance)
	best := 0
	for i := 1; i < dim; i++ {
		if variance[i] > variance[best] {
			best = i
		}
	}
	return best
}

// MinMax returns the per-dimension minimum and maximum over pts.
// It panics on an empty point set.
func MinMax(pts [][]float64) (lo, hi []float64) {
	if len(pts) == 0 {
		panic("vec: MinMax of empty point set")
	}
	dim := len(pts[0])
	lo = Clone(pts[0][:dim])
	hi = Clone(pts[0][:dim])
	for _, p := range pts[1:] {
		for i, v := range p {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return lo, hi
}
