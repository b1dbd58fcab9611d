// Package mbr implements minimum bounding (hyper-)rectangles and the
// geometric predicates the index and the predictors need: point
// containment, MinDist to a point, sphere intersection, union,
// volume/margin, and the sampling compensation growth from Theorem 1 of
// Lang & Singh (SIGMOD 2001).
package mbr

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned hyper-rectangle given by its lower-left and
// upper-right corners. Lo and Hi always have equal length (the
// dimensionality) and Lo[i] <= Hi[i] for all i.
type Rect struct {
	Lo, Hi []float64
}

// New returns a degenerate rectangle covering exactly the point p.
func New(p []float64) Rect {
	lo := make([]float64, len(p))
	hi := make([]float64, len(p))
	copy(lo, p)
	copy(hi, p)
	return Rect{Lo: lo, Hi: hi}
}

// FromCorners builds a rectangle from explicit corners, copying them.
// It panics if the corners disagree in length or are inverted.
func FromCorners(lo, hi []float64) Rect {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("mbr: corner dimension mismatch %d != %d", len(lo), len(hi)))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("mbr: inverted rectangle in dim %d: %g > %g", i, lo[i], hi[i]))
		}
	}
	r := Rect{Lo: make([]float64, len(lo)), Hi: make([]float64, len(hi))}
	copy(r.Lo, lo)
	copy(r.Hi, hi)
	return r
}

// Bound returns the minimal bounding rectangle of a non-empty point set.
func Bound(pts [][]float64) Rect {
	if len(pts) == 0 {
		panic("mbr: Bound of empty point set")
	}
	r := New(pts[0])
	for _, p := range pts[1:] {
		r.Extend(p)
	}
	return r
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return FromCorners(r.Lo, r.Hi)
}

// Extend grows r in place to contain the point p.
func (r *Rect) Extend(p []float64) {
	if len(p) != len(r.Lo) {
		panic(fmt.Sprintf("mbr: point dimension %d != rect dimension %d", len(p), len(r.Lo)))
	}
	for i, v := range p {
		if v < r.Lo[i] {
			r.Lo[i] = v
		}
		if v > r.Hi[i] {
			r.Hi[i] = v
		}
	}
}

// ExtendRect grows r in place to contain the rectangle o.
func (r *Rect) ExtendRect(o Rect) {
	for i := range r.Lo {
		if o.Lo[i] < r.Lo[i] {
			r.Lo[i] = o.Lo[i]
		}
		if o.Hi[i] > r.Hi[i] {
			r.Hi[i] = o.Hi[i]
		}
	}
}

// Union returns the minimal rectangle containing both a and b.
func Union(a, b Rect) Rect {
	u := a.Clone()
	u.ExtendRect(b)
	return u
}

// Contains reports whether p lies inside r (boundaries inclusive).
func (r Rect) Contains(p []float64) bool {
	for i, v := range p {
		if v < r.Lo[i] || v > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether o lies entirely inside r.
func (r Rect) ContainsRect(o Rect) bool {
	for i := range r.Lo {
		if o.Lo[i] < r.Lo[i] || o.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the center point of r.
func (r Rect) Center() []float64 {
	c := make([]float64, len(r.Lo))
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Side returns the extent of r along dimension i.
func (r Rect) Side(i int) float64 { return r.Hi[i] - r.Lo[i] }

// Volume returns the d-dimensional volume of r. Degenerate sides
// contribute factor zero.
func (r Rect) Volume() float64 {
	v := 1.0
	for i := range r.Lo {
		v *= r.Hi[i] - r.Lo[i]
	}
	return v
}

// Margin returns the sum of the side lengths of r (the L1 "margin"
// used by R*-tree style heuristics).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// LongestDim returns the dimension along which r is widest.
// Ties resolve to the lowest dimension.
func (r Rect) LongestDim() int {
	best := 0
	for i := 1; i < len(r.Lo); i++ {
		if r.Side(i) > r.Side(best) {
			best = i
		}
	}
	return best
}

// MinSqDist returns the squared Euclidean distance from p to the
// nearest point of r; zero when p lies inside r. This is the classic
// MINDIST metric of R-tree nearest neighbor search.
func (r Rect) MinSqDist(p []float64) float64 {
	var s float64
	for i, v := range p {
		switch {
		case v < r.Lo[i]:
			d := r.Lo[i] - v
			s += d * d
		case v > r.Hi[i]:
			d := v - r.Hi[i]
			s += d * d
		}
	}
	return s
}

// MinDist returns the Euclidean distance from p to the nearest point
// of r.
func (r Rect) MinDist(p []float64) float64 { return math.Sqrt(r.MinSqDist(p)) }

// IntersectsSphere reports whether the closed ball of the given radius
// around center shares any point with r.
func (r Rect) IntersectsSphere(center []float64, radius float64) bool {
	return r.MinSqDist(center) <= radius*radius
}

// GrowCentered scales every side of r by the given per-side factor,
// keeping the center fixed, and returns the result. A factor of 1
// returns an identical rectangle; factors below 1 shrink.
func (r Rect) GrowCentered(factor float64) Rect {
	if factor < 0 {
		panic("mbr: negative growth factor")
	}
	g := r.Clone()
	for i := range g.Lo {
		c := (g.Lo[i] + g.Hi[i]) / 2
		half := (g.Hi[i] - g.Lo[i]) / 2 * factor
		g.Lo[i] = c - half
		g.Hi[i] = c + half
	}
	return g
}

// SplitAt cuts r into two rectangles along dimension dim at coordinate
// x, which must lie within [Lo[dim], Hi[dim]].
func (r Rect) SplitAt(dim int, x float64) (left, right Rect) {
	if x < r.Lo[dim] || x > r.Hi[dim] {
		panic(fmt.Sprintf("mbr: split coordinate %g outside [%g,%g]", x, r.Lo[dim], r.Hi[dim]))
	}
	left = r.Clone()
	right = r.Clone()
	left.Hi[dim] = x
	right.Lo[dim] = x
	return left, right
}

// String renders the rectangle compactly for diagnostics.
func (r Rect) String() string {
	return fmt.Sprintf("Rect(lo=%v hi=%v)", r.Lo, r.Hi)
}
