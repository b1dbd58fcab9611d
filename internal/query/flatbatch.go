package query

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"hdidx/internal/par"
	"hdidx/internal/rtree"
)

// Batched best-first k-NN: one traversal of the flat tree answers up
// to 64 queries at once. Every frontier entry carries a bitmask of the
// queries still interested in its subtree and is ordered by the
// minimum MINDIST over those queries. Each node of the tree is then
// visited at most once per batch — the directory walk, the child
// MINDIST pricing, and the leaf row loads are amortized over the whole
// batch instead of being repeated per query, which is the point: a
// serving batch of B nearby queries touches largely overlapping
// subtrees.
//
// Exactness. Per query q the traversal is a filtered view of the
// single-query best-first search:
//
//   - q is dropped from a child at push time only when the child's own
//     MINDIST to q exceeds q's current k-th-best bound. The bound only
//     shrinks, so the subtree can never again contain a q-result.
//   - q is dropped at pop time only when the entry's aggregate
//     distance exceeds q's bound; the aggregate is the minimum over
//     the masked queries, hence a lower bound on q's own MINDIST, so
//     the same argument applies.
//
// Every point within q's final radius therefore survives masking along
// its whole root path and is offered to q's heap: radii and neighbor
// sets are exactly those of KNNSearchFlat. Access counts are charged
// per query from the refined mask; because min-aggregate ordering can
// pop an entry before q's bound has shrunk enough to prune it, a
// query's counts can exceed (never undercut) its single-query optimum.
// The batch property test asserts both directions.

// batchWidth is the number of queries one traversal serves — the width
// of the interest bitmask. Larger batches are split.
const batchWidth = 64

type batchHeapEntry struct {
	dist float64
	node int32
	mask uint64
}

// batchMinHeap is the 4-ary frontier heap of the batched search,
// identical in shape to nodeMinHeap plus the interest mask.
type batchMinHeap struct {
	e []batchHeapEntry
}

func (h *batchMinHeap) reset()   { h.e = h.e[:0] }
func (h *batchMinHeap) len() int { return len(h.e) }

func (h *batchMinHeap) push(node int32, dist float64, mask uint64) {
	h.e = append(h.e, batchHeapEntry{dist: dist, node: node, mask: mask})
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

func (h *batchMinHeap) pop() batchHeapEntry {
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

// batchScratch is the pooled per-batch state.
type batchScratch struct {
	pq    batchMinHeap
	best  []boundedMaxHeap
	nbrs  []neighborHeap
	dists []float64 // per-child MINDIST of the current query
	minD  []float64 // per-child aggregate minimum over masked queries
	masks []uint64  // per-child refined interest mask
}

func (sc *batchScratch) grow(b int) {
	if cap(sc.best) < b {
		sc.best = make([]boundedMaxHeap, b)
		sc.nbrs = make([]neighborHeap, b)
	}
	sc.best = sc.best[:b]
	sc.nbrs = sc.nbrs[:b]
}

// child returns per-child scratch buffers of at least cc entries.
func (sc *batchScratch) child(cc int) (minD, dists []float64, masks []uint64) {
	if cap(sc.dists) < cc {
		sc.dists = make([]float64, cc)
		sc.minD = make([]float64, cc)
		sc.masks = make([]uint64, cc)
	}
	return sc.minD[:cc], sc.dists[:cc], sc.masks[:cc]
}

var batchPool = sync.Pool{New: func() interface{} { return &batchScratch{} }}

// KNNSearchFlatBatch answers one k-NN query per entry of queries in a
// single shared best-first traversal per group of up to 64 queries
// (larger batches are split into consecutive groups). ks[i] is the k
// of queries[i]. Results match KNNSearchFlat query for query in radius
// and neighbor set; per-query access counts may exceed the
// single-query numbers (see the package comment above).
//
// The same aliasing contract as KNNSearchFlat applies: neighbors are
// row views into ft.Points.
func KNNSearchFlatBatch(ft *rtree.FlatTree, queries [][]float64, ks []int) []Result {
	if len(ks) != len(queries) {
		panic(fmt.Sprintf("query: %d queries but %d k values", len(queries), len(ks)))
	}
	out := make([]Result, len(queries))
	for lo := 0; lo < len(queries); lo += batchWidth {
		hi := lo + batchWidth
		if hi > len(queries) {
			hi = len(queries)
		}
		sc := batchPool.Get().(*batchScratch)
		knnFlatBatch(ft, queries[lo:hi], ks[lo:hi], out[lo:hi], sc)
		batchPool.Put(sc)
	}
	return out
}

func knnFlatBatch(ft *rtree.FlatTree, queries [][]float64, ks []int, out []Result, sc *batchScratch) {
	b := len(queries)
	if b == 0 {
		return
	}
	sc.grow(b)
	for i, q := range queries {
		if ks[i] <= 0 || ks[i] > ft.NumPoints {
			panic(fmt.Sprintf("query: k = %d outside [1, %d]", ks[i], ft.NumPoints))
		}
		if len(q) != ft.Dim {
			panic(fmt.Sprintf("query: query dimension %d != tree dimension %d", len(q), ft.Dim))
		}
		sc.best[i].reset(ks[i])
		sc.nbrs[i].reset(ks[i])
	}
	data, dim := ft.Points.Data, ft.Dim

	sc.pq.reset()
	rootDist, rootMask := math.Inf(1), uint64(0)
	for i, q := range queries {
		d := ft.Rects.MinSqDist(0, q)
		rootMask |= 1 << uint(i)
		if d < rootDist {
			rootDist = d
		}
	}
	sc.pq.push(0, rootDist, rootMask)

	for sc.pq.len() > 0 {
		e := sc.pq.pop()
		// Refine the interest mask against the current bounds. The
		// entry distance lower-bounds every masked query's own
		// MINDIST, so exclusion here is exact.
		mask := uint64(0)
		for m := e.mask; m != 0; m &= m - 1 {
			qi := bits.TrailingZeros64(m)
			if !(sc.best[qi].full() && e.dist > sc.best[qi].max()) {
				mask |= 1 << uint(qi)
			}
		}
		if mask == 0 {
			// Entries pop in nondecreasing distance order, so once
			// every query's bound is below the frontier the rest of
			// the heap is dead too.
			allFull := true
			maxBound := 0.0
			for i := 0; i < b; i++ {
				if !sc.best[i].full() {
					allFull = false
					break
				}
				if bd := sc.best[i].max(); bd > maxBound {
					maxBound = bd
				}
			}
			if allFull && e.dist > maxBound {
				break
			}
			continue
		}
		cc := int(ft.ChildCount[e.node])
		if cc == 0 {
			start, end := int(ft.PtStart[e.node]), int(ft.PtStart[e.node]+ft.PtCount[e.node])
			for m := mask; m != 0; m &= m - 1 {
				qi := bits.TrailingZeros64(m)
				out[qi].LeafAccesses++
				q, best, nbrs := queries[qi], &sc.best[qi], &sc.nbrs[qi]
				for r := start; r < end; r++ {
					row := data[r*dim : r*dim+dim]
					d, ok := sqDistBounded(row, q, best.max())
					if !ok {
						continue
					}
					best.offer(d)
					nbrs.offer(d, row)
				}
			}
			continue
		}
		cs := int(ft.ChildStart[e.node])
		minD, dists, masks := sc.child(cc)
		for j := 0; j < cc; j++ {
			minD[j] = math.Inf(1)
			masks[j] = 0
		}
		for m := mask; m != 0; m &= m - 1 {
			qi := bits.TrailingZeros64(m)
			out[qi].DirAccesses++
			bound := sc.best[qi].max()
			ft.Rects.MinSqDists(queries[qi], cs, cc, bound, dists)
			for j := 0; j < cc; j++ {
				if dists[j] <= bound {
					masks[j] |= 1 << uint(qi)
					if dists[j] < minD[j] {
						minD[j] = dists[j]
					}
				}
			}
		}
		for j := 0; j < cc; j++ {
			if masks[j] != 0 {
				sc.pq.push(int32(cs+j), minD[j], masks[j])
			}
		}
	}
	for i := range out {
		out[i].Radius = math.Sqrt(sc.best[i].max())
		out[i].Neighbors = sc.nbrs[i].extract()
	}
}

// MeasureKNNFlatBatch is the batched twin of MeasureKNNFlat: it runs
// the shared-frontier traversal per group of 64 queries and returns
// per-query radii and access counts deep-equal to the single-query
// driver. The batch traversal itself over-visits (see the package
// comment), so its per-query counts are not the single-query numbers;
// instead, each query's counts are recomputed exactly from its final
// k-th bound by a bound-pruned DFS — valid because the accessed set of
// the single-query best-first search is exactly the nodes whose
// MINDIST is at most the final squared bound with an accessed parent,
// independent of traversal order (same argument as RangeSearchFlat's,
// with the final bound as the radius; the k-th bound itself is taken
// from the batch heap before the lossy sqrt). Neighbors are not
// collected, matching MeasureKNNFlat.
func MeasureKNNFlatBatch(ft *rtree.FlatTree, queryPoints [][]float64, k int) []Result {
	return MeasureKNNFlatBatchPool(ft, queryPoints, k, par.Pool{})
}

// MeasureKNNFlatBatchPool is MeasureKNNFlatBatch with the fan-out over
// 64-query groups bounded by pool.
func MeasureKNNFlatBatchPool(ft *rtree.FlatTree, queryPoints [][]float64, k int, pool par.Pool) []Result {
	out := make([]Result, len(queryPoints))
	groups := (len(queryPoints) + batchWidth - 1) / batchWidth
	pool.For(groups, func(g int) {
		lo := g * batchWidth
		hi := lo + batchWidth
		if hi > len(queryPoints) {
			hi = len(queryPoints)
		}
		ks := make([]int, hi-lo)
		for i := range ks {
			ks[i] = k
		}
		sc := batchPool.Get().(*batchScratch)
		knnFlatBatch(ft, queryPoints[lo:hi], ks, out[lo:hi], sc)
		fsc := flatPool.Get().(*flatScratch)
		for i := lo; i < hi; i++ {
			// sc.best[i-lo] still holds the final squared k-th bound;
			// Radius is its sqrt and must not be re-squared.
			leaf, dir := countAccessesFlat(ft, queryPoints[i], sc.best[i-lo].max(), fsc)
			out[i].LeafAccesses, out[i].DirAccesses = leaf, dir
			out[i].Neighbors = nil
		}
		flatPool.Put(fsc)
		batchPool.Put(sc)
	})
	return out
}

// countAccessesFlat counts the leaf and directory nodes whose MINDIST
// to q is at most the squared bound b2, descending only through
// counted directories — the exact accessed set of the single-query
// best-first search that ended with b2 as its k-th bound.
func countAccessesFlat(ft *rtree.FlatTree, q []float64, b2 float64, sc *flatScratch) (leaf, dir int) {
	if ft.NumNodes() == 0 {
		return 0, 0
	}
	stack := sc.stack[:0]
	if ft.Rects.MinSqDist(0, q) <= b2 {
		stack = append(stack, 0)
	}
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cc := int(ft.ChildCount[node])
		if cc == 0 {
			leaf++
			continue
		}
		dir++
		cs := int(ft.ChildStart[node])
		dists := sc.childDists(cc)
		ft.Rects.MinSqDists(q, cs, cc, b2, dists)
		for j := 0; j < cc; j++ {
			if dists[j] <= b2 {
				stack = append(stack, int32(cs+j))
			}
		}
	}
	sc.stack = stack[:0]
	return leaf, dir
}
