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
	"math/rand"

	"hdidx/internal/mbr"
	"hdidx/internal/par"
	"hdidx/internal/rtree"
	"hdidx/internal/vec"
)

// Sphere is a query region: the k-NN ball of a query point.
type Sphere struct {
	Center []float64
	Radius float64
}

// KNNBruteRadius returns the distance from q to its k-th nearest
// neighbor in pts by linear scan. If q is itself an element of pts it
// participates at distance zero, matching the paper's density-biased
// workloads whose query points are drawn from the dataset. It panics
// if k exceeds the number of points or is not positive.
//
// This is the slice-based reference implementation; ComputeSpheres
// runs the packed early-exit scan, whose radii are bit-identical
// (asserted by the kernel tests).
func KNNBruteRadius(pts [][]float64, q []float64, k int) float64 {
	if k <= 0 || k > len(pts) {
		panic(fmt.Sprintf("query: k = %d outside [1, %d]", k, len(pts)))
	}
	h := NewBoundedMaxHeap(k)
	for _, p := range pts {
		h.Offer(vec.SqDist(p, q))
	}
	return math.Sqrt(h.Max())
}

// DensityBiased draws the density-biased query workload of Section
// 4.2: q query points drawn uniformly from data, so denser regions
// receive proportionally more queries. It returns the drawn positions
// and the rows at them (data's own rows, not copies). It takes exactly
// q values of rng.Intn(len(data)), so a caller that goes on sampling
// with rng sees the same stream wherever the workload is drawn.
func DensityBiased(data [][]float64, q int, rng *rand.Rand) (indices []int, points [][]float64) {
	indices = make([]int, q)
	points = make([][]float64, q)
	for i := range indices {
		indices[i] = rng.Intn(len(data))
		points[i] = data[indices[i]]
	}
	return indices, points
}

// Balls returns the query regions of a range workload: one sphere of
// the given radius around each center.
func Balls(centers [][]float64, radius float64) []Sphere {
	out := make([]Sphere, len(centers))
	for i, c := range centers {
		out[i] = Sphere{Center: c, Radius: radius}
	}
	return out
}

// ComputeSpheres computes the k-NN sphere of every query point against
// the full dataset, the way the paper determines its query shapes
// during the single dataset scan: a SphereScanner fed the whole
// dataset as one chunk, its queries processed in parallel chunks. It
// panics if k is not in [1, len(data)].
func ComputeSpheres(data [][]float64, queryPoints [][]float64, k int) []Sphere {
	if k <= 0 || k > len(data) {
		panic(fmt.Sprintf("query: k = %d outside [1, %d]", k, len(data)))
	}
	s := NewSphereScanner(queryPoints, k)
	s.Process(data)
	return s.Spheres()
}

// MeasureLeafAccesses counts, for each query sphere, the leaf pages of
// the tree intersecting it: MeasureLeafAccessesSet over the tree's leaf
// MBRs in build order.
func MeasureLeafAccesses(t *rtree.Tree, spheres []Sphere) []float64 {
	return MeasureLeafAccessesSet(mbr.NewRectSet(t.LeafRects()), spheres)
}

// MeasureLeafAccessesSet counts, for each query sphere, the rectangles
// of the flat SoA set intersecting it (RectSet.CountSphereIntersections).
// It is the one per-query sphere–page count: the R-tree, grid-file and
// dynamic-index measurements run it over built leaves or occupied
// cells, and the R-tree and grid-file predictors over predicted leaf
// layouts. Queries run in parallel.
func MeasureLeafAccessesSet(set *mbr.RectSet, spheres []Sphere) []float64 {
	out := make([]float64, len(spheres))
	par.Chunks(len(spheres), func(lo, hi int) {
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

// neighborHeap selects the k nearest candidate points as a bounded
// max-heap (the BoundedMaxHeap machinery, carrying the points): offers
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

// BoundedMaxHeap keeps the k smallest values offered; Max is the
// current k-th smallest (or +Inf until full). It is the k-smallest
// collector of every search here and of the balltree, gridfile and
// vafile substrates; Reset lets a pooled scratch reuse its array.
type BoundedMaxHeap struct {
	k    int
	vals []float64
}

// NewBoundedMaxHeap returns an empty heap for the k smallest values.
func NewBoundedMaxHeap(k int) *BoundedMaxHeap {
	return &BoundedMaxHeap{k: k, vals: make([]float64, 0, k)}
}

// Reset empties the heap and re-arms it for k values, keeping the
// backing array when it is large enough.
func (h *BoundedMaxHeap) Reset(k int) {
	h.k = k
	if cap(h.vals) < k {
		h.vals = make([]float64, 0, k)
	} else {
		h.vals = h.vals[:0]
	}
}

// Full reports whether the heap holds k values.
func (h *BoundedMaxHeap) Full() bool { return len(h.vals) == h.k }

// Max returns the k-th smallest value offered, or +Inf until k values
// have been.
func (h *BoundedMaxHeap) Max() float64 {
	if !h.Full() {
		return math.Inf(1)
	}
	return h.vals[0]
}

// Offer adds v, dropping the largest value once the heap is full.
func (h *BoundedMaxHeap) Offer(v float64) {
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

func (h *BoundedMaxHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.vals[parent] >= h.vals[i] {
			return
		}
		h.vals[parent], h.vals[i] = h.vals[i], h.vals[parent]
		i = parent
	}
}

func (h *BoundedMaxHeap) down(i int) {
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
