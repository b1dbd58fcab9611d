// Package quant holds the scalar-quantization math of the VA-file
// (internal/vafile): equi-populated per-dimension quantizer boundaries
// ("marks", Weber & Blott 1997), cell assignment, and per-cell
// distance bounds.
//
// The invariants the caller's exactness argument rests on:
//
//   - Marks are non-decreasing, the first mark is the minimum
//     coordinate, and the last mark is Nextafter(max, +Inf) — so every
//     data coordinate x satisfies m[c] <= x < m[c+1] for its own cell
//     c = Cell(m, x), strictly below the upper boundary.
//   - CellBounds(m, c, x) returns the minimum and maximum absolute
//     distance from a query coordinate x to the closed interval
//     [m[c], m[c+1]]. Because the cell interval contains every point
//     assigned to the cell, lo <= |p-x| <= hi holds per dimension, and
//     this survives floating point: each bound is computed with a
//     single subtraction (one correctly-rounded operation, monotone in
//     its arguments), so the rounded bound stays on the correct side
//     of the rounded |p-x|. Summing squared per-dimension terms in the
//     same ascending-dimension order as the exact distance then keeps
//     the summed bounds on the correct side too (non-negative terms,
//     identical operation count and order, round-to-nearest is
//     monotone term by term).
package quant

import "math"

// Marks fills m with the len(m)-1 equi-populated slice boundaries of
// one dimension, computed from the sorted coordinate values (as Weber
// et al. recommend for non-uniform data). m[0] is the minimum, the
// last mark is just above the maximum, and duplicates collapse slices
// into empty cells (marks stay non-decreasing).
func Marks(m []float64, sorted []float64) {
	slices := len(m) - 1
	m[0] = sorted[0]
	m[slices] = math.Nextafter(sorted[len(sorted)-1], math.Inf(1))
	for s := 1; s < slices; s++ {
		m[s] = sorted[(len(sorted)*s)/slices]
	}
	// Guarantee non-decreasing marks (duplicates collapse slices).
	for s := 1; s <= slices; s++ {
		if m[s] < m[s-1] {
			m[s] = m[s-1]
		}
	}
}

// Cell returns the slice index of coordinate x against marks m: the
// largest s with m[s] <= x, clamped to [0, len(m)-2].
func Cell(m []float64, x float64) uint32 {
	lo, hi := 0, len(m)-1 // find s with m[s] <= x < m[s+1]
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if m[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return uint32(lo)
}

// CellBounds returns the minimum and maximum absolute distance from
// query coordinate x to the cell interval [m[c], m[c+1]].
func CellBounds(m []float64, c uint32, x float64) (lo, hi float64) {
	l, h := m[c], m[c+1]
	switch {
	case x < l:
		return l - x, h - x
	case x > h:
		return x - h, x - l
	}
	lo = 0
	hi = x - l
	if d := h - x; d > hi {
		hi = d
	}
	return lo, hi
}
