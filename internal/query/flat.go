package query

import (
	"fmt"
	"math"
	"sync"

	"hdidx/internal/par"
	"hdidx/internal/rtree"
)

// This file holds the traversal kernels over the linearized
// rtree.FlatTree: the iterative best-first k-NN (the package's only
// k-NN traversal) and an iterative range search. Both walk flat arrays
// instead of chasing Node pointers:
//
//   - Child pruning is batched: one RectSet.MinSqDists call prices a
//     node's whole child range over contiguous corner memory, with the
//     per-dimension early exit against the current k-th-best bound.
//   - Leaf scans run sqDistBounded over contiguous row-major rows of
//     the tree's point matrix — the same partial-distance early exit as
//     the sphere-computation kernel. The matrix may be resident or a
//     view into a mapped snapshot file; the search cannot tell.
//   - The frontier is a concrete 4-ary min-heap of (tree, node, dist)
//     entries; no container/heap, no interface boxing, no allocation
//     per push.
//   - All per-query state lives in a pooled scratch, so a steady-state
//     radii-only search allocates nothing and a search returning
//     neighbors allocates only the result slice.
//
// The pointer-tree searches of the test files are the oracles; the
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
//
// The same two facts make a search over an opened snapshot file
// bit-identical to the in-memory one: the file round-trips float64
// bits exactly, and every traversal decision depends only on those
// distances and the directory arrays. The accessed-set rule also lets
// the pager experiment derive a workload's leaf set, and from it the
// file pages read, without instrumenting the search.
//
// They also carry over to a forest — one search over the roots of
// several trees, as the sharded server runs it. Each tree's root enters
// the frontier at its MINDIST, and one k-th-best bound and one
// (distance, lex) neighbor heap serve every tree, so selection does not
// depend on which tree a row came from: the radius and neighbors equal
// a single tree's over the union of the points. The accessed set is
// every node, in any tree, whose MINDIST and whose ancestors' MINDISTs
// are at most the final bound — never more than searching each tree to
// its own, wider k-th radius, and the same count for one tree.

// flatHeapEntry is one frontier entry of the flat best-first search:
// node of trees[tree]. The tree index fills what would be padding
// after node, so an entry stays 16 bytes.
type flatHeapEntry struct {
	dist float64
	node int32
	tree int32
}

// nodeMinHeap is a concrete 4-ary min-heap over frontier entries. The
// wider fanout halves the tree depth of sift-downs versus a binary
// heap, and the four children of a node share a cache line pair.
type nodeMinHeap struct {
	e []flatHeapEntry
}

func (h *nodeMinHeap) reset() { h.e = h.e[:0] }

func (h *nodeMinHeap) len() int { return len(h.e) }

func (h *nodeMinHeap) push(tree, node int32, dist float64) {
	h.e = append(h.e, flatHeapEntry{dist: dist, node: node, tree: tree})
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

func (h *nodeMinHeap) pop() flatHeapEntry {
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
	return top
}

// flatScratch is the pooled per-query state of the flat searches.
type flatScratch struct {
	pq    nodeMinHeap
	best  BoundedMaxHeap
	nbrs  neighborHeap
	dists []float64
	stack []int32
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
// lexicographic point order).
//
// Aliasing contract: the returned Neighbors are row views into
// ft.Points — zero-copy on purpose, since the measurement paths only
// read them. Callers that hand neighbors to code that may mutate or
// retain them past the tree's lifetime must copy (the hdidx facade
// and the serving layer do).
func KNNSearchFlat(ft *rtree.FlatTree, q []float64, k int) Result {
	sc := flatPool.Get().(*flatScratch)
	res := knnFlat([]*rtree.FlatTree{ft}, q, k, true, sc)
	flatPool.Put(sc)
	return res
}

// KNNSearchForest is KNNSearchFlat over the union of several trees'
// points: one best-first search from every non-empty tree's root under
// one k-th-best bound (see the file comment). The sharded server
// answers every k-NN call with it. The same aliasing contract applies:
// neighbors are row views into the trees' Points.
func KNNSearchForest(trees []*rtree.FlatTree, q []float64, k int) Result {
	sc := flatPool.Get().(*flatScratch)
	res := knnFlat(trees, q, k, true, sc)
	flatPool.Put(sc)
	return res
}

// KNNSearchFlatBatch answers one k-NN query per entry of queries; ks[i]
// is the k of queries[i]. Each result is exactly KNNSearchFlat's —
// radius, neighbors, and access counts — so a batch costs and reports
// what its queries would alone. The same aliasing contract applies.
//
// It has no production caller: it stays only for the benchmark's layer
// replay (bench/trace.go), which times a 16-query batch with it.
func KNNSearchFlatBatch(ft *rtree.FlatTree, queries [][]float64, ks []int) []Result {
	if len(ks) != len(queries) {
		panic(fmt.Sprintf("query: %d queries but %d k values", len(queries), len(ks)))
	}
	out := make([]Result, len(queries))
	sc := flatPool.Get().(*flatScratch)
	trees := []*rtree.FlatTree{ft}
	for i, q := range queries {
		out[i] = knnFlat(trees, q, ks[i], true, sc)
	}
	flatPool.Put(sc)
	return out
}

// knnFlat is the best-first search body over a forest of trees; one
// tree is the plain single-tree search. With wantNeighbors false it
// tracks only distances and access counts — no candidate accumulation
// at all — and performs zero steady-state allocations (asserted by the
// allocs guard test); with it true the only allocation is the returned
// neighbor slice.
func knnFlat(trees []*rtree.FlatTree, q []float64, k int, wantNeighbors bool, sc *flatScratch) Result {
	total := 0
	for _, ft := range trees {
		total += ft.NumPoints
	}
	if k <= 0 || k > total {
		panic(fmt.Sprintf("query: k = %d outside [1, %d]", k, total))
	}
	sc.pq.reset()
	sc.best.Reset(k)
	if wantNeighbors {
		sc.nbrs.reset(k)
	}
	for i, ft := range trees {
		if ft.NumPoints == 0 {
			continue
		}
		if len(q) != ft.Dim {
			panic(fmt.Sprintf("query: query dimension %d != tree dimension %d", len(q), ft.Dim))
		}
		sc.pq.push(int32(i), 0, ft.Rects.MinSqDist(0, q))
	}
	dim := len(q)
	res := Result{}
	for sc.pq.len() > 0 {
		e := sc.pq.pop()
		if sc.best.Full() && e.dist > sc.best.Max() {
			break
		}
		ft, node := trees[e.tree], e.node
		cc := int(ft.ChildCount[node])
		if cc == 0 {
			res.LeafAccesses++
			start, end := int(ft.PtStart[node]), int(ft.PtStart[node]+ft.PtCount[node])
			rows := ft.Points.Data
			for r := start; r < end; r++ {
				row := rows[r*dim : r*dim+dim]
				d, ok := sqDistBounded(row, q, sc.best.Max())
				if !ok {
					continue
				}
				sc.best.Offer(d)
				if wantNeighbors {
					sc.nbrs.offer(d, row)
				}
			}
			continue
		}
		res.DirAccesses++
		cs := int(ft.ChildStart[node])
		bound := sc.best.Max()
		dists := sc.childDists(cc)
		ft.Rects.MinSqDists(q, cs, cc, bound, dists)
		for j := 0; j < cc; j++ {
			if dists[j] <= bound {
				sc.pq.push(e.tree, int32(cs+j), dists[j])
			}
		}
	}
	res.Radius = math.Sqrt(sc.best.Max())
	if wantNeighbors {
		res.Neighbors = sc.nbrs.extract()
	}
	return res
}

// RangeSearchFlat counts the points of the flat tree within the sphere
// and the pages accessed doing so. A range search needs no heap order:
// the accessed set is every node whose MINDIST is at most the radius
// (with an accessed parent), so a depth-first walk reports the same
// counts as any other order.
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

// MeasureKNNFlat runs the best-first k-NN for each query point on a
// pre-flattened tree and returns the per-query access counts and
// radii. Neighbors are not collected — the measurement callers only
// consume radii and page counts, so the per-leaf candidate
// accumulation is skipped entirely. Queries run in parallel.
func MeasureKNNFlat(ft *rtree.FlatTree, queryPoints [][]float64, k int) []Result {
	out := make([]Result, len(queryPoints))
	trees := []*rtree.FlatTree{ft}
	par.Chunks(len(queryPoints), func(lo, hi int) {
		sc := flatPool.Get().(*flatScratch)
		for i := lo; i < hi; i++ {
			out[i] = knnFlat(trees, queryPoints[i], k, false, sc)
		}
		flatPool.Put(sc)
	})
	return out
}
