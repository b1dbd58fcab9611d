package query

import (
	"fmt"
	"math"
	"sync"

	"hdidx/internal/par"
	"hdidx/internal/rtree"
)

// This file holds the traversal kernels over the linearized
// rtree.FlatTree: an iterative best-first k-NN and an iterative range
// search. They replace the pointer-chased Node walk of KNNSearch /
// RangeSearch on the measurement hot paths with flat array traversal:
//
//   - Child pruning is batched: one RectSet.MinSqDists call prices a
//     node's whole child range over contiguous corner memory, with the
//     per-dimension early exit against the current k-th-best bound.
//   - Leaf scans run sqDistBounded over the contiguous rows of the
//     packed point matrix — the same partial-distance early exit as the
//     sphere-computation kernel.
//   - The frontier is a concrete 4-ary min-heap of (node, dist) pairs;
//     no container/heap, no interface boxing, no allocation per push.
//   - All per-query state lives in a pooled scratch, so a steady-state
//     radii-only search allocates nothing and a search returning
//     neighbors allocates only the result slice.
//
// The pointer-based KNNSearch and RangeSearch remain the oracles; the
// flat searches are bit-identical to them in radius, leaf/dir access
// counts, and neighbor sets (asserted by the property suite in
// flat_test.go). Two facts make that possible even though heap
// tie-breaking and leaf visit order may differ between the paths:
//
//   - Every distance value is computed with the same ascending-
//     dimension accumulation as the scalar reference, so distances are
//     identical bit for bit, and the k-NN radius is an order statistic
//     of the candidate distance multiset — visit order cannot change
//     it. Early exits only drop candidates whose partial sum already
//     exceeds the current bound, which the bounded heap would reject.
//   - The accessed node set is tie-order independent: best-first pops
//     nodes in nondecreasing MINDIST order, and processing a node with
//     MINDIST D only adds candidates at distance >= D, so the pruning
//     bound can never drop below D while distance-D nodes remain. A
//     node is therefore accessed iff its MINDIST is at most the final
//     k-th-best bound (and its parent was accessed), whatever order
//     ties pop in.

// flatHeapEntry is one frontier entry of the flat best-first search.
type flatHeapEntry struct {
	dist float64
	node int32
}

// nodeMinHeap is a concrete 4-ary min-heap over frontier entries. The
// wider fanout halves the tree depth of sift-downs versus a binary
// heap, and the four children of a node share a cache line pair.
type nodeMinHeap struct {
	e []flatHeapEntry
}

func (h *nodeMinHeap) reset() { h.e = h.e[:0] }

func (h *nodeMinHeap) len() int { return len(h.e) }

func (h *nodeMinHeap) push(node int32, dist float64) {
	h.e = append(h.e, flatHeapEntry{dist: dist, node: node})
	i := len(h.e) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if h.e[parent].dist <= h.e[i].dist {
			break
		}
		h.e[parent], h.e[i] = h.e[i], h.e[parent]
		i = parent
	}
}

func (h *nodeMinHeap) pop() (node int32, dist float64) {
	top := h.e[0]
	last := len(h.e) - 1
	h.e[0] = h.e[last]
	h.e = h.e[:last]
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if h.e[c].dist < h.e[min].dist {
				min = c
			}
		}
		if h.e[i].dist <= h.e[min].dist {
			break
		}
		h.e[i], h.e[min] = h.e[min], h.e[i]
		i = min
	}
	return top.node, top.dist
}

// flatScratch is the pooled per-query state of the flat searches.
type flatScratch struct {
	pq    nodeMinHeap
	best  boundedMaxHeap
	nbrs  neighborHeap
	dists []float64
	stack []int32
	rows  []float64 // paged-search leaf row buffer (paged.go)
}

// childDists returns a scratch buffer of at least n distances.
func (sc *flatScratch) childDists(n int) []float64 {
	if cap(sc.dists) < n {
		sc.dists = make([]float64, n)
	}
	return sc.dists[:n]
}

var flatPool = sync.Pool{New: func() interface{} { return &flatScratch{} }}

// KNNSearchFlat runs the iterative best-first (Hjaltason–Samet) k-NN
// search over the flat tree and reports the pages accessed, including
// the k nearest points (closest first, distance ties broken by
// lexicographic point order). It is bit-identical to the pointer
// oracle KNNSearch in radius, access counts, and neighbor set.
//
// Aliasing contract: the returned Neighbors are row views into
// ft.Points — zero-copy on purpose, since the measurement paths only
// read them. Callers that hand neighbors to code that may mutate or
// retain them past the tree's lifetime must copy (the hdidx facade
// and the serving layer do).
func KNNSearchFlat(ft *rtree.FlatTree, q []float64, k int) Result {
	sc := flatPool.Get().(*flatScratch)
	res := knnFlat(ft, q, k, true, sc)
	flatPool.Put(sc)
	return res
}

// knnFlat is the best-first search body. With wantNeighbors false it
// tracks only distances and access counts — no candidate accumulation
// at all — and performs zero steady-state allocations (asserted by the
// allocs guard test); with it true the only allocation is the returned
// neighbor slice.
func knnFlat(ft *rtree.FlatTree, q []float64, k int, wantNeighbors bool, sc *flatScratch) Result {
	if k <= 0 || k > ft.NumPoints {
		panic(fmt.Sprintf("query: k = %d outside [1, %d]", k, ft.NumPoints))
	}
	if len(q) != ft.Dim {
		panic(fmt.Sprintf("query: query dimension %d != tree dimension %d", len(q), ft.Dim))
	}
	sc.pq.reset()
	sc.best.reset(k)
	if wantNeighbors {
		sc.nbrs.reset(k)
	}
	data, dim := ft.Points.Data, ft.Dim
	sc.pq.push(0, ft.Rects.MinSqDist(0, q))
	res := Result{}
	for sc.pq.len() > 0 {
		node, dist := sc.pq.pop()
		if sc.best.full() && dist > sc.best.max() {
			break
		}
		cc := int(ft.ChildCount[node])
		if cc == 0 {
			res.LeafAccesses++
			start, end := int(ft.PtStart[node]), int(ft.PtStart[node]+ft.PtCount[node])
			for r := start; r < end; r++ {
				row := data[r*dim : r*dim+dim]
				d, ok := sqDistBounded(row, q, sc.best.max())
				if !ok {
					continue
				}
				sc.best.offer(d)
				if wantNeighbors {
					sc.nbrs.offer(d, row)
				}
			}
			continue
		}
		res.DirAccesses++
		cs := int(ft.ChildStart[node])
		bound := sc.best.max()
		dists := sc.childDists(cc)
		ft.Rects.MinSqDists(q, cs, cc, bound, dists)
		for j := 0; j < cc; j++ {
			if dists[j] <= bound {
				sc.pq.push(int32(cs+j), dists[j])
			}
		}
	}
	res.Radius = math.Sqrt(sc.best.max())
	if wantNeighbors {
		res.Neighbors = sc.nbrs.extract()
	}
	return res
}

// RangeSearchFlat counts the points of the flat tree within the sphere
// and the pages accessed doing so — bit-identical to the pointer
// oracle RangeSearch (the accessed set is every node whose MINDIST is
// at most the radius, independent of traversal order).
func RangeSearchFlat(ft *rtree.FlatTree, s Sphere) (points int, res Result) {
	res.Radius = s.Radius
	if ft.NumNodes() == 0 {
		return 0, res
	}
	if len(s.Center) != ft.Dim {
		panic(fmt.Sprintf("query: query dimension %d != tree dimension %d", len(s.Center), ft.Dim))
	}
	r2 := s.Radius * s.Radius
	sc := flatPool.Get().(*flatScratch)
	defer flatPool.Put(sc)
	data, dim := ft.Points.Data, ft.Dim
	stack := sc.stack[:0]
	if ft.Rects.MinSqDist(0, s.Center) <= r2 {
		stack = append(stack, 0)
	}
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cc := int(ft.ChildCount[node])
		if cc == 0 {
			res.LeafAccesses++
			start, end := int(ft.PtStart[node]), int(ft.PtStart[node]+ft.PtCount[node])
			for r := start; r < end; r++ {
				if _, ok := sqDistBounded(data[r*dim:r*dim+dim], s.Center, r2); ok {
					points++
				}
			}
			continue
		}
		res.DirAccesses++
		cs := int(ft.ChildStart[node])
		dists := sc.childDists(cc)
		ft.Rects.MinSqDists(s.Center, cs, cc, r2, dists)
		for j := 0; j < cc; j++ {
			if dists[j] <= r2 {
				stack = append(stack, int32(cs+j))
			}
		}
	}
	sc.stack = stack[:0]
	return points, res
}

// MeasureKNNFlat runs the flat best-first k-NN for each query point on
// a pre-flattened tree and returns the per-query access counts and
// radii. Neighbors are not collected — the measurement callers only
// consume radii and page counts, so the per-leaf candidate
// accumulation is skipped entirely. Queries run in parallel.
func MeasureKNNFlat(ft *rtree.FlatTree, queryPoints [][]float64, k int) []Result {
	return MeasureKNNFlatPool(ft, queryPoints, k, par.Pool{})
}

// MeasureKNNFlatPool is MeasureKNNFlat with the fan-out bounded by
// pool.
func MeasureKNNFlatPool(ft *rtree.FlatTree, queryPoints [][]float64, k int, pool par.Pool) []Result {
	out := make([]Result, len(queryPoints))
	pool.Chunks(len(queryPoints), func(lo, hi int) {
		sc := flatPool.Get().(*flatScratch)
		for i := lo; i < hi; i++ {
			out[i] = knnFlat(ft, queryPoints[i], k, false, sc)
		}
		flatPool.Put(sc)
	})
	return out
}

// MeasureLeafAccessesFlat counts, for each query sphere, the leaf
// pages of the flat tree intersecting it, using the flat tree's
// leaf-MBR tail. It matches MeasureLeafAccesses on the source tree.
func MeasureLeafAccessesFlat(ft *rtree.FlatTree, spheres []Sphere) []float64 {
	return MeasureLeafAccessesSet(ft.LeafRectSet(), spheres)
}
