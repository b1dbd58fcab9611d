// Package vafile implements the VA-file (vector approximation file,
// Weber & Blott 1997; Weber, Schek & Blott, VLDB 1998) — the structure
// Section 4.7 names as the example *outside* the group the paper's
// sampling technique covers, "since it does not organize points in
// pages of fixed capacity".
//
// A VA-file keeps a compact approximation of every vector (a few bits
// per dimension addressing a grid cell) and answers k-NN queries in
// two phases: a full sequential scan of the approximations computes a
// lower and an upper bound on every vector's distance, pruning most
// candidates; the survivors are fetched from the exact vector file in
// lower-bound order until no lower bound can beat the current k-th
// exact distance.
//
// Its inclusion completes the reproduction's landscape: the VA-file's
// scan cost is a deterministic ceil(N*b*d/8 / pageBytes) page reads,
// independent of the data distribution — nothing to sample, nothing to
// predict — which is exactly why the paper's prediction problem does
// not arise for it.
//
// # Exact filtering
//
// The quantizer (fillMarks, cellOf, cellBounds: equi-populated
// per-dimension boundaries, cell assignment, per-cell distance bounds)
// keeps the invariants the filter's exactness rests on:
//
//   - Marks are non-decreasing, the first mark is the minimum
//     coordinate, and the last mark is Nextafter(max, +Inf) — so every
//     data coordinate x satisfies m[c] <= x < m[c+1] for its own cell
//     c = cellOf(m, x), strictly below the upper boundary.
//   - cellBounds(m, c, x) returns the minimum and maximum absolute
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
package vafile

import (
	"fmt"
	"math"
	"sort"
)

// VAFile is a vector approximation file over a fixed dataset.
type VAFile struct {
	// Bits is the number of bits per dimension (2^Bits grid slices).
	Bits int
	// PageBytes sizes the approximation pages for cost reporting.
	PageBytes int

	dim    int
	points [][]float64
	// marks[d] holds the 2^Bits+1 slice boundaries of dimension d
	// (equi-populated quantiles, as Weber et al. recommend for
	// non-uniform data).
	marks [][]float64
	// approx holds the cell index of every point in every dimension.
	approx [][]uint32
}

// Build constructs a VA-file with the given bits per dimension.
func Build(pts [][]float64, bits, pageBytes int) (*VAFile, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("vafile: no points")
	}
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("vafile: bits %d outside [1, 16]", bits)
	}
	if pageBytes < 1 {
		return nil, fmt.Errorf("vafile: page size %d < 1", pageBytes)
	}
	dim := len(pts[0])
	v := &VAFile{
		Bits:      bits,
		PageBytes: pageBytes,
		dim:       dim,
		points:    pts,
		marks:     make([][]float64, dim),
		approx:    make([][]uint32, len(pts)),
	}
	slices := 1 << bits
	// Equi-populated marks per dimension from the sorted coordinates.
	coord := make([]float64, len(pts))
	for d := 0; d < dim; d++ {
		for i, p := range pts {
			coord[i] = p[d]
		}
		sort.Float64s(coord)
		m := make([]float64, slices+1)
		fillMarks(m, coord)
		v.marks[d] = m
	}
	for i, p := range pts {
		a := make([]uint32, dim)
		for d := 0; d < dim; d++ {
			a[d] = v.cell(d, p[d])
		}
		v.approx[i] = a
	}
	return v, nil
}

// cell returns the slice index of coordinate x in dimension d.
func (v *VAFile) cell(d int, x float64) uint32 {
	return cellOf(v.marks[d], x)
}

// N returns the number of stored vectors.
func (v *VAFile) N() int { return len(v.points) }

// Dim returns the dimensionality.
func (v *VAFile) Dim() int { return v.dim }

// ApproximationPages returns the number of pages one sequential scan
// of the approximation file reads: ceil(N * bits * dim / 8 /
// pageBytes). It is a constant of the structure — the reason no
// distribution-dependent prediction is needed.
func (v *VAFile) ApproximationPages() int {
	bytes := (len(v.points)*v.Bits*v.dim + 7) / 8
	return (bytes + v.PageBytes - 1) / v.PageBytes
}

// bounds returns the squared lower and upper bounds of the distance
// between q and the point with approximation a.
func (v *VAFile) bounds(q []float64, a []uint32) (lo2, hi2 float64) {
	for d := 0; d < v.dim; d++ {
		lo, hi := cellBounds(v.marks[d], a[d], q[d])
		lo2 += lo * lo
		hi2 += hi * hi
	}
	return lo2, hi2
}

// fillMarks fills m with the len(m)-1 equi-populated slice boundaries
// of one dimension, computed from the sorted coordinate values (as
// Weber et al. recommend for non-uniform data). m[0] is the minimum,
// the last mark is just above the maximum, and duplicates collapse
// slices into empty cells (marks stay non-decreasing).
func fillMarks(m []float64, sorted []float64) {
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

// cellOf returns the slice index of coordinate x against marks m: the
// largest s with m[s] <= x, clamped to [0, len(m)-2].
func cellOf(m []float64, x float64) uint32 {
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

// cellBounds returns the minimum and maximum absolute distance from
// query coordinate x to the cell interval [m[c], m[c+1]].
func cellBounds(m []float64, c uint32, x float64) (lo, hi float64) {
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

// Result reports one VA-file k-NN search.
type Result struct {
	// Radius is the exact distance to the k-th nearest neighbor.
	Radius float64
	// ApproximationPages is the sequential scan cost (constant).
	ApproximationPages int
	// VectorAccesses is the number of exact vectors fetched in the
	// refinement phase (each a random access).
	VectorAccesses int
	// Candidates is the number of points surviving the filter phase.
	Candidates int
}

// KNNSearch runs the two-phase VA-file search (the VA-SSA algorithm of
// Weber et al.): filter by approximation bounds, then refine in
// lower-bound order with the optimal stopping rule.
func (v *VAFile) KNNSearch(q []float64, k int) Result {
	if k <= 0 || k > len(v.points) {
		panic(fmt.Sprintf("vafile: k = %d outside [1, %d]", k, len(v.points)))
	}
	if len(q) != v.dim {
		panic(fmt.Sprintf("vafile: query dimension %d != %d", len(q), v.dim))
	}
	// Phase 1: scan approximations, keep the k smallest upper bounds
	// as the pruning threshold, collect candidates by lower bound.
	kthUpper := newKSmallest(k)
	lo2s := make([]float64, len(v.points))
	for i, a := range v.approx {
		lo2, hi2 := v.bounds(q, a)
		lo2s[i] = lo2
		kthUpper.offer(hi2)
	}
	threshold := kthUpper.max()
	// Count survivors first so the candidate heap is sized exactly:
	// together with the preallocated kSmallest heaps this keeps the
	// whole search at a small constant number of allocations (the
	// allocs guard test pins it).
	nc := 0
	for _, lo2 := range lo2s {
		if lo2 <= threshold {
			nc++
		}
	}
	cands := make(candHeap, 0, nc)
	for i, lo2 := range lo2s {
		if lo2 <= threshold {
			cands.push(candEntry{idx: i, lo2: lo2})
		}
	}
	res := Result{
		ApproximationPages: v.ApproximationPages(),
		Candidates:         len(cands),
	}
	// Phase 2: refine in lower-bound order.
	exact := newKSmallest(k)
	for len(cands) > 0 {
		e := cands.pop()
		if exact.full() && e.lo2 > exact.max() {
			break
		}
		res.VectorAccesses++
		d2 := sqDist(v.points[e.idx], q)
		exact.offer(d2)
	}
	res.Radius = math.Sqrt(exact.max())
	return res
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// kSmallest tracks the k smallest values offered (max-heap).
type kSmallest struct {
	k    int
	vals []float64
}

func newKSmallest(k int) *kSmallest {
	return &kSmallest{k: k, vals: make([]float64, 0, k)}
}

func (h *kSmallest) full() bool { return len(h.vals) == h.k }

func (h *kSmallest) max() float64 {
	if !h.full() {
		return math.Inf(1)
	}
	return h.vals[0]
}

func (h *kSmallest) offer(v float64) {
	if len(h.vals) < h.k {
		h.vals = append(h.vals, v)
		i := len(h.vals) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h.vals[p] >= h.vals[i] {
				break
			}
			h.vals[p], h.vals[i] = h.vals[i], h.vals[p]
			i = p
		}
		return
	}
	if v >= h.vals[0] {
		return
	}
	h.vals[0] = v
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h.vals) && h.vals[l] > h.vals[largest] {
			largest = l
		}
		if r < len(h.vals) && h.vals[r] > h.vals[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h.vals[i], h.vals[largest] = h.vals[largest], h.vals[i]
		i = largest
	}
}

type candEntry struct {
	idx int
	lo2 float64
}

// candHeap is a concrete slice-backed binary min-heap over candidate
// entries ordered by lower bound — no container/heap, so pushes append
// plain structs instead of boxing every entry into an interface{}
// allocation (the same de-boxing the traversal heaps got).
type candHeap []candEntry

func (h *candHeap) push(e candEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].lo2 <= s[i].lo2 {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *candHeap) pop() candEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && s[l].lo2 < s[min].lo2 {
			min = l
		}
		if r < last && s[r].lo2 < s[min].lo2 {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}
