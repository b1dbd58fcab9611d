package mbr

import (
	"fmt"
	"math"
)

// RectSet is a flat, structure-of-arrays rectangle collection: the Lo
// and Hi corners of all rectangles live in two contiguous []float64
// arrays (rectangle i occupies entries [i*dim, (i+1)*dim)), instead of
// one two-slice Rect header per rectangle. The hot predicates — sphere
// intersection counting and nearest-box classification — walk these
// arrays sequentially with a per-dimension early exit, which is what
// makes the leaf-access measurement and the predictors' intersection
// phase cache-friendly at high dimensionality.
//
// A RectSet is immutable after construction and safe for concurrent
// readers. The slice-based Rect predicates remain the reference
// implementations; the kernels here are bit-identical to them (they
// accumulate per-dimension terms in the same order and only skip work
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
	lo := s.lo[i*s.dim : (i+1)*s.dim]
	hi := s.hi[i*s.dim : (i+1)*s.dim]
	var acc float64
	for j, v := range p {
		switch {
		case v < lo[j]:
			d := lo[j] - v
			acc += d * d
		case v > hi[j]:
			d := v - hi[j]
			acc += d * d
		}
	}
	return acc
}

// MinSqDists computes the squared MINDIST from p to each rectangle of
// the contiguous range [start, start+count), writing rectangle start+i's
// distance to out[i]. It is the batched child-pruning kernel of the
// flat best-first traversal: one call prices a whole child range over
// contiguous corner memory instead of one pointer-chased MinSqDist per
// child.
//
// Per rectangle the terms accumulate in ascending dimension order,
// exactly like Rect.MinSqDist, so every completed distance is
// bit-identical to the scalar reference. A rectangle whose partial sum
// exceeds bound is abandoned early — the remaining terms are
// non-negative, so its full distance is also above bound — and its out
// entry holds that partial sum (some value > bound). Callers that only
// keep entries <= bound therefore make identical decisions with or
// without the early exit; pass bound = +Inf for exact distances
// everywhere.
func (s *RectSet) MinSqDists(p []float64, start, count int, bound float64, out []float64) {
	if count == 0 {
		return
	}
	if len(p) != s.dim {
		panic(fmt.Sprintf("mbr: point dimension %d != rect dimension %d", len(p), s.dim))
	}
	if start < 0 || start+count > s.n {
		panic(fmt.Sprintf("mbr: range [%d, %d) of a %d-rectangle set", start, start+count, s.n))
	}
	dim := s.dim
	lo, hi := s.lo, s.hi
	for i, base := 0, start*dim; i < count; i, base = i+1, base+dim {
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
		out[i] = acc
	}
}

// CountSphereIntersections returns how many rectangles the closed ball
// around center touches — the flat kernel behind leaf-access
// measurement and the predictors' intersection counting. Per rectangle
// it accumulates the MINDIST terms dimension by dimension and bails
// out as soon as the partial sum exceeds radius²: the remaining terms
// are non-negative, so the rectangle is already known not to
// intersect. The count is bit-identical to looping
// Rect.IntersectsSphere over the same rectangles.
func (s *RectSet) CountSphereIntersections(center []float64, radius float64) int {
	if s.n == 0 {
		return 0
	}
	if len(center) != s.dim {
		panic(fmt.Sprintf("mbr: center dimension %d != rect dimension %d", len(center), s.dim))
	}
	r2 := radius * radius
	count := 0
	dim := s.dim
	lo, hi := s.lo, s.hi
	for base := 0; base < len(lo); base += dim {
		var acc float64
		for j, v := range center {
			if l := lo[base+j]; v < l {
				d := l - v
				acc += d * d
			} else if h := hi[base+j]; v > h {
				d := v - h
				acc += d * d
			}
			if acc > r2 {
				break
			}
		}
		if acc <= r2 {
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
	if len(p) != s.dim {
		panic(fmt.Sprintf("mbr: point dimension %d != rect dimension %d", len(p), s.dim))
	}
	dim := s.dim
	lo, hi := s.lo, s.hi
	bestDist := math.Inf(1)
	for i, base := 0, 0; base < len(lo); i, base = i+1, base+dim {
		var acc float64
		pruned := false
		for j, v := range p {
			if l := lo[base+j]; v < l {
				d := l - v
				acc += d * d
			} else if h := hi[base+j]; v > h {
				d := v - h
				acc += d * d
			}
			if acc > bestDist {
				// Already farther than the best box; the remaining
				// dimensions only add distance, and acc > 0 means the
				// box cannot contain p either.
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		if acc == 0 {
			return i, true
		}
		if acc < bestDist {
			best, bestDist = i, acc
		}
	}
	return best, false
}
