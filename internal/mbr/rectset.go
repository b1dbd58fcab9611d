package mbr

import (
	"fmt"
	"math"
)

// RectSet is a flat, structure-of-arrays rectangle collection: the Lo
// and Hi corners of all rectangles live in two contiguous []float64
// arrays (rectangle i occupies entries [i*dim, (i+1)*dim)), instead of
// one two-slice Rect header per rectangle. The hot predicates — child
// pruning, sphere intersection counting and nearest-box classification
// — walk these arrays sequentially, pricing every rectangle with one
// MINDIST kernel (minSqDist) that exits early per dimension, which is
// what makes the served search, the leaf-access measurement and the
// predictors' intersection phase cache-friendly at high
// dimensionality.
//
// A RectSet is immutable after construction and safe for concurrent
// readers. The slice-based Rect predicates remain the reference
// implementations; the kernel is bit-identical to Rect.MinSqDist (it
// accumulates the same terms in the same order and only skips work
// whose outcome is already decided), which the rectset tests assert.
type RectSet struct {
	lo, hi []float64
	n, dim int
}

// NewRectSet flattens rects into a RectSet, copying the corners. All
// rectangles must agree in dimensionality.
func NewRectSet(rects []Rect) *RectSet {
	s := &RectSet{n: len(rects)}
	if len(rects) == 0 {
		return s
	}
	s.dim = rects[0].Dim()
	s.lo = make([]float64, s.n*s.dim)
	s.hi = make([]float64, s.n*s.dim)
	for i, r := range rects {
		if r.Dim() != s.dim {
			panic(fmt.Sprintf("mbr: rectangle %d has dimension %d, want %d", i, r.Dim(), s.dim))
		}
		copy(s.lo[i*s.dim:], r.Lo)
		copy(s.hi[i*s.dim:], r.Hi)
	}
	return s
}

// Len returns the number of rectangles.
func (s *RectSet) Len() int { return s.n }

// Slice returns a view of rectangles [start, start+count) sharing the
// backing arrays with s. Like s itself the view is immutable and safe
// for concurrent readers. The flat tree layout uses it to expose its
// leaf-MBR tail as a standalone set without copying.
func (s *RectSet) Slice(start, count int) *RectSet {
	if start < 0 || count < 0 || start+count > s.n {
		panic(fmt.Sprintf("mbr: slice [%d, %d) of a %d-rectangle set", start, start+count, s.n))
	}
	if count == 0 {
		return &RectSet{}
	}
	return &RectSet{
		lo:  s.lo[start*s.dim : (start+count)*s.dim],
		hi:  s.hi[start*s.dim : (start+count)*s.dim],
		n:   count,
		dim: s.dim,
	}
}

// Dim returns the dimensionality (0 for an empty set).
func (s *RectSet) Dim() int { return s.dim }

// Corners returns the raw corner arrays: rectangle i's low corner is
// lo[i*Dim : (i+1)*Dim] and its high corner the same range of hi. The
// slices are views into the set's backing storage — callers must treat
// them as immutable, like the set itself. The persistence layer uses
// them to serialize a set as two contiguous columns.
func (s *RectSet) Corners() (lo, hi []float64) { return s.lo, s.hi }

// RectSetFromCorners adopts (without copying) two corner columns laid
// out as Corners returns them: n rectangles of dimensionality dim,
// rectangle i occupying entries [i*dim, (i+1)*dim) of each column. The
// columns must not be mutated afterwards. It panics on mismatched
// lengths; the persistence layer validates untrusted input before
// calling.
func RectSetFromCorners(lo, hi []float64, n, dim int) *RectSet {
	if n == 0 {
		return &RectSet{}
	}
	if n < 0 || dim <= 0 || len(lo) != n*dim || len(hi) != n*dim {
		panic(fmt.Sprintf("mbr: corner columns of %d/%d values for %d rectangles of dimension %d",
			len(lo), len(hi), n, dim))
	}
	return &RectSet{lo: lo, hi: hi, n: n, dim: dim}
}

// At returns a copy of rectangle i as a Rect.
func (s *RectSet) At(i int) Rect {
	return FromCorners(s.lo[i*s.dim:(i+1)*s.dim], s.hi[i*s.dim:(i+1)*s.dim])
}

// MinSqDist returns the squared Euclidean distance from p to the
// nearest point of rectangle i, exactly as Rect.MinSqDist does.
func (s *RectSet) MinSqDist(i int, p []float64) float64 {
	s.checkPoint(p)
	return minSqDist(s.lo, s.hi, i*s.dim, p, math.Inf(1))
}

// MinSqDists computes the squared MINDIST from p to each rectangle of
// the contiguous range [start, start+count), writing rectangle start+i's
// distance to out[i]. It is the batched child-pruning kernel of the
// flat best-first traversal: one call prices a whole child range over
// contiguous corner memory instead of one pointer-chased MinSqDist per
// child.
//
// Each entry is minSqDist bounded by bound: a completed distance is
// bit-identical to Rect.MinSqDist, and an abandoned one holds a partial
// sum above bound. Callers that only keep entries <= bound therefore
// make identical decisions with or without the early exit; pass
// bound = +Inf for exact distances everywhere.
func (s *RectSet) MinSqDists(p []float64, start, count int, bound float64, out []float64) {
	if count == 0 {
		return
	}
	s.checkPoint(p)
	if start < 0 || start+count > s.n {
		panic(fmt.Sprintf("mbr: range [%d, %d) of a %d-rectangle set", start, start+count, s.n))
	}
	dim := s.dim
	lo, hi := s.lo, s.hi
	for i, base := 0, start*dim; i < count; i, base = i+1, base+dim {
		out[i] = minSqDist(lo, hi, base, p, bound)
	}
}

// CountSphereIntersections returns how many rectangles the closed ball
// around center touches: those whose minSqDist, bounded by radius²,
// is at most radius². The count is bit-identical to looping
// Rect.IntersectsSphere over the same rectangles. Every leaf-access
// measurement and every R-tree and grid-file prediction reach it
// through query.MeasureLeafAccessesSet.
func (s *RectSet) CountSphereIntersections(center []float64, radius float64) int {
	if s.n == 0 {
		return 0
	}
	s.checkPoint(center)
	r2 := radius * radius
	count := 0
	dim := s.dim
	lo, hi := s.lo, s.hi
	for base := 0; base < len(lo); base += dim {
		if minSqDist(lo, hi, base, center, r2) <= r2 {
			count++
		}
	}
	return count
}

// Classify returns the index of the rectangle containing p — the first
// one in set order, matching a sequential scan that stops at the first
// MinSqDist of zero — or, when none contains it, the closest rectangle
// by MINDIST (first strictly-smaller wins, again matching the
// sequential reference). contained reports which case occurred. It
// panics on an empty set.
func (s *RectSet) Classify(p []float64) (best int, contained bool) {
	if s.n == 0 {
		panic("mbr: Classify against an empty RectSet")
	}
	s.checkPoint(p)
	dim := s.dim
	lo, hi := s.lo, s.hi
	bestDist := math.Inf(1)
	for i, base := 0, 0; base < len(lo); i, base = i+1, base+dim {
		// A box abandoned above bestDist is farther than the best one,
		// and its positive distance means it cannot contain p either.
		acc := minSqDist(lo, hi, base, p, bestDist)
		if acc == 0 {
			return i, true
		}
		if acc < bestDist {
			best, bestDist = i, acc
		}
	}
	return best, false
}

// checkPoint panics unless p has the set's dimensionality.
func (s *RectSet) checkPoint(p []float64) {
	if len(p) != s.dim {
		panic(fmt.Sprintf("mbr: point dimension %d != rect dimension %d", len(p), s.dim))
	}
}

// minSqDist is every RectSet method's MINDIST: the squared distance
// from p to the rectangle whose corners are lo[base:base+len(p)] and
// hi[base:base+len(p)], accumulated in ascending dimension order with
// Rect.MinSqDist's terms (l − v below the rectangle, v − h above it,
// squared), so a completed sum is bit-identical to it. The sum is
// tested against bound after every term; once it exceeds bound the
// remaining terms, all non-negative, cannot bring it back, so the
// partial sum (some value > bound) is returned. Callers check that p
// has the set's dimension, so it reads no other rectangle's corners.
func minSqDist(lo, hi []float64, base int, p []float64, bound float64) float64 {
	var acc float64
	for j, v := range p {
		if l := lo[base+j]; v < l {
			d := l - v
			acc += d * d
		} else if h := hi[base+j]; v > h {
			d := v - h
			acc += d * d
		}
		if acc > bound {
			break
		}
	}
	return acc
}
