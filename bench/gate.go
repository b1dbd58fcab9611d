package main

import (
	"math"
	"sort"
)

// The correctness gate compares served answers with a brute-force
// scan. Distances are summed in dimension order, the order the index
// kernels use, so radii must agree bit for bit, not approximately.

func sqDist(p, q []float64) float64 {
	var s float64
	for i := range q {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// bruteRadius returns the distance from q to its k-th nearest point.
func bruteRadius(points [][]float64, q []float64, k int) float64 {
	d := make([]float64, len(points))
	for i, p := range points {
		d[i] = sqDist(p, q)
	}
	sort.Float64s(d)
	return math.Sqrt(d[k-1])
}

// bruteCount returns the number of points within radius of q.
func bruteCount(points [][]float64, q []float64, radius float64) int {
	r2 := radius * radius
	n := 0
	for _, p := range points {
		if sqDist(p, q) <= r2 {
			n++
		}
	}
	return n
}

// hashRows is FNV-1a over the bits of every coordinate, in order: two
// answers hash equal only if they list the same points in the same
// order.
func hashRows(rows [][]float64) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range rows {
		for _, x := range r {
			b := math.Float64bits(x)
			for i := 0; i < 8; i++ {
				h ^= b & 0xff
				h *= 1099511628211
				b >>= 8
			}
		}
	}
	return h
}
