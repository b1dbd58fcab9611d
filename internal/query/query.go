// Package query implements the query side of the reproduction of
// Lang & Singh (SIGMOD 2001): brute-force k-NN radii, query-sphere
// computation, leaf-access counting, the optimal best-first k-NN and
// the range search over a flat tree, and the multi-step k-NN behind
// the paper's Section 6.2 application.
//
// A k-NN query is represented by its query sphere — the ball around
// the query point whose radius is the distance to the k-th nearest
// neighbor. The number of index leaf pages an optimal k-NN search
// (Hjaltason–Samet best-first) accesses equals the number of leaf MBRs
// intersecting this sphere, which is what both the measurements and
// the predictions count.
package query

import (
	"fmt"
	"math"

	"hdidx/internal/mbr"
	"hdidx/internal/par"
	"hdidx/internal/rtree"
)

// Sphere is a query region: the k-NN ball of a query point.
type Sphere struct {
	Center []float64
	Radius float64
}

// Intersects reports whether the sphere touches the rectangle.
func (s Sphere) Intersects(r mbr.Rect) bool {
	return r.IntersectsSphere(s.Center, s.Radius)
}

// KNNBruteRadius returns the distance from q to its k-th nearest
// neighbor in pts by linear scan. If q is itself an element of pts it
// participates at distance zero, matching the paper's density-biased
// workloads whose query points are drawn from the dataset. It panics
// if k exceeds the number of points or is not positive.
//
// This is the slice-based reference implementation; ComputeSpheres
// runs the flat early-exit kernel, whose radii are bit-identical
// (asserted by the kernel tests).
func KNNBruteRadius(pts [][]float64, q []float64, k int) float64 {
	if k <= 0 || k > len(pts) {
		panic(fmt.Sprintf("query: k = %d outside [1, %d]", k, len(pts)))
	}
	h := newBoundedMaxHeap(k)
	for _, p := range pts {
		h.offer(sqDist(p, q))
	}
	return math.Sqrt(h.max())
}

// ComputeSpheres computes the k-NN sphere of every query point against
// the full dataset, the way the paper determines its query shapes
// during the single dataset scan. The dataset is laid out flat once
// (packed for the vector kernel where available, row-major otherwise)
// and each query runs the blocked early-exit scan kernel; queries are
// processed in parallel chunks with pooled scratch.
func ComputeSpheres(data [][]float64, queryPoints [][]float64, k int) []Sphere {
	return computeSpheresFlat(data, queryPoints, k, par.Pool{})
}

// ComputeSpheresPool is ComputeSpheres with the fan-out over queries
// bounded by pool instead of the process-wide worker pool — the entry
// point for callers carrying a per-call worker count.
func ComputeSpheresPool(data [][]float64, queryPoints [][]float64, k int, pool par.Pool) []Sphere {
	return computeSpheresFlat(data, queryPoints, k, pool)
}

// CountIntersections returns the number of rectangles intersecting the
// sphere. This is the page-access count of an optimal k-NN search over
// leaves with those MBRs, and the quantity every predictor estimates.
//
// This is the slice-based reference implementation; the measurement
// and prediction hot paths run mbr.RectSet.CountSphereIntersections,
// which is bit-identical (asserted by the rectset tests).
func CountIntersections(rects []mbr.Rect, s Sphere) int {
	n := 0
	for _, r := range rects {
		if s.Intersects(r) {
			n++
		}
	}
	return n
}

// MeasureLeafAccesses counts, for each query sphere, the leaf pages of
// the tree intersecting it, using the tree's flat leaf-MBR set.
// Queries run in parallel.
func MeasureLeafAccesses(t *rtree.Tree, spheres []Sphere) []float64 {
	return MeasureLeafAccessesSetPool(t.LeafRectSet(), spheres, par.Pool{})
}

// MeasureLeafAccessesSetPool counts, for each query sphere, the
// rectangles of the flat SoA set intersecting it — the shared kernel
// behind leaf-access measurement over pointer trees
// (Tree.LeafRectSet), flat trees (FlatTree.LeafRectSet), and the
// predictors' mini-index leaf layouts. The fan-out over queries is
// bounded by pool (the zero pool follows the process default).
func MeasureLeafAccessesSetPool(set *mbr.RectSet, spheres []Sphere, pool par.Pool) []float64 {
	out := make([]float64, len(spheres))
	pool.Chunks(len(spheres), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(set.CountSphereIntersections(spheres[i].Center, spheres[i].Radius))
		}
	})
	return out
}

// Result reports the page accesses of one tree search.
type Result struct {
	// Radius is the distance to the k-th nearest neighbor found.
	Radius float64
	// LeafAccesses is the number of leaf pages read.
	LeafAccesses int
	// DirAccesses is the number of directory pages read (including
	// the root).
	DirAccesses int
	// Neighbors holds the k nearest points, closest first.
	Neighbors [][]float64
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// neighborHeap selects the k nearest candidate points as a bounded
// max-heap (the boundedMaxHeap machinery, carrying the points): offers
// beyond capacity replace the root when strictly closer, so selection
// is O(log k) per candidate instead of the removed selectNearest's
// O(n·k) selection sort over every visited leaf point. Distance ties
// order by lexicographic point comparison, making the selected set and
// its output order identical however the traversal encounters the
// candidates — the flat search and the test-only pointer oracle agree
// bit for bit on neighbor lists.
type neighborHeap struct {
	k int
	e []nbrCand
}

type nbrCand struct {
	d float64
	p []float64
}

// less orders candidates ascending by (distance, lexicographic point).
func (c nbrCand) less(o nbrCand) bool {
	if c.d != o.d {
		return c.d < o.d
	}
	for i, v := range c.p {
		if v != o.p[i] {
			return v < o.p[i]
		}
	}
	return false
}

func (h *neighborHeap) reset(k int) {
	h.k = k
	h.e = h.e[:0]
}

func (h *neighborHeap) offer(d float64, p []float64) {
	c := nbrCand{d: d, p: p}
	if len(h.e) < h.k {
		h.e = append(h.e, c)
		h.up(len(h.e) - 1)
		return
	}
	if !c.less(h.e[0]) {
		return
	}
	h.e[0] = c
	h.down(0, len(h.e))
}

func (h *neighborHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.e[parent].less(h.e[i]) {
			return
		}
		h.e[parent], h.e[i] = h.e[i], h.e[parent]
		i = parent
	}
}

func (h *neighborHeap) down(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.e[largest].less(h.e[l]) {
			largest = l
		}
		if r < n && h.e[largest].less(h.e[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.e[i], h.e[largest] = h.e[largest], h.e[i]
		i = largest
	}
}

// extract empties the heap into a slice of the retained points sorted
// ascending by (distance, lexicographic point) — an in-place heap
// sort, so the returned slice is the only allocation.
func (h *neighborHeap) extract() [][]float64 {
	out := make([][]float64, len(h.e))
	for n := len(h.e); n > 0; n-- {
		out[n-1] = h.e[0].p
		h.e[0] = h.e[n-1]
		h.down(0, n-1)
	}
	h.e = h.e[:0]
	return out
}

// boundedMaxHeap keeps the k smallest values offered; max() is the
// current k-th smallest (or +Inf until full).
type boundedMaxHeap struct {
	k    int
	vals []float64
}

func newBoundedMaxHeap(k int) *boundedMaxHeap {
	return &boundedMaxHeap{k: k, vals: make([]float64, 0, k)}
}

// reset empties the heap and re-arms it for k values, keeping the
// backing array when it is large enough (pooled scratch reuse).
func (h *boundedMaxHeap) reset(k int) {
	h.k = k
	if cap(h.vals) < k {
		h.vals = make([]float64, 0, k)
	} else {
		h.vals = h.vals[:0]
	}
}

func (h *boundedMaxHeap) full() bool { return len(h.vals) == h.k }

func (h *boundedMaxHeap) max() float64 {
	if !h.full() {
		return math.Inf(1)
	}
	return h.vals[0]
}

func (h *boundedMaxHeap) offer(v float64) {
	if len(h.vals) < h.k {
		h.vals = append(h.vals, v)
		h.up(len(h.vals) - 1)
		return
	}
	if v >= h.vals[0] {
		return
	}
	h.vals[0] = v
	h.down(0)
}

func (h *boundedMaxHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.vals[parent] >= h.vals[i] {
			return
		}
		h.vals[parent], h.vals[i] = h.vals[i], h.vals[parent]
		i = parent
	}
}

func (h *boundedMaxHeap) down(i int) {
	n := len(h.vals)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.vals[l] > h.vals[largest] {
			largest = l
		}
		if r < n && h.vals[r] > h.vals[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h.vals[i], h.vals[largest] = h.vals[largest], h.vals[i]
		i = largest
	}
}
