package query

import (
	"fmt"
	"math"

	"hdidx/internal/rtree"
	"hdidx/internal/vec"
)

// This file holds the pager-backed variants of the flat traversal
// kernels: the directory walk (child ranges, MBR pruning) runs over
// the resident FlatTree arrays exactly as in knnFlat, but leaf point
// rows are fetched through a LeafSource instead of ft.Points — so a
// pager.Snapshot source turns every leaf visit into real page reads
// whose count the experiments compare against the paper's predictions.
//
// Bit-identity with the in-memory search follows from two facts:
// distances are computed by the same sqDistBounded over bytes that
// round-trip the file exactly (float64 bits are preserved), and the
// traversal decisions (heap order, pruning bounds, leaf visits) depend
// only on those distances and the resident directory arrays. Access
// counts also match: both paths visit exactly the leaves whose
// MINDIST is at most the final bound.

// LeafSource supplies leaf point rows [start, end) as one row-major
// run, using buf as scratch when it is large enough. The returned
// slice may alias buf, the source's internal buffer, or (for a
// zero-copy source) read-only memory the source owns, and is only
// valid until the next call — callers must copy rows they retain and
// must never write through it. pager.Snapshot implements it with real
// page-granular file reads (ReadAt backend) or views into a read-only
// file mapping (mmap backend).
type LeafSource interface {
	LeafRows(start, end int, buf []float64) []float64
}

// zeroCopySource marks a LeafSource whose LeafRows results are views
// into source-owned (possibly write-protected) memory rather than
// buf-backed copies. The paged kernels recycle large returned slices
// as scratch for later calls — a write into a read-only mapping — so
// they skip that recycling when ZeroCopy reports true.
// pager.Snapshot implements it.
type zeroCopySource interface {
	ZeroCopy() bool
}

// isZeroCopy reports whether src's rows must not be adopted as
// writable scratch.
func isZeroCopy(src LeafSource) bool {
	zc, ok := src.(zeroCopySource)
	return ok && zc.ZeroCopy()
}

// MatrixSource adapts an in-memory point matrix to LeafSource for
// tests and oracles. It copies rows into buf rather than returning
// views, mimicking a pager's reused read buffer so that any caller
// that wrongly retains returned rows fails against it too.
type MatrixSource struct {
	M vec.Matrix
}

func (s MatrixSource) LeafRows(start, end int, buf []float64) []float64 {
	n := (end - start) * s.M.Dim
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	out := buf[:n]
	copy(out, s.M.Data[start*s.M.Dim:end*s.M.Dim])
	return out
}

// offerCopied admits (d, row) into the neighbor heap like offer, but
// copies the row first — and only when it will actually be admitted —
// because the heap retains admitted slices while LeafSource row memory
// is reused on the next fetch. The admission predicate is exactly
// offer's, so the selected set is identical to offering resident rows.
func (h *neighborHeap) offerCopied(d float64, row []float64) {
	if len(h.e) >= h.k && !(nbrCand{d: d, p: row}).less(h.e[0]) {
		return
	}
	h.offer(d, append([]float64(nil), row...))
}

// KNNSearchPaged runs the best-first k-NN over the flat tree's
// directory arrays, reading leaf rows through src. Radius, access
// counts, and neighbor lists are bit-identical to KNNSearchFlat on the
// same tree (property-tested); the returned Neighbors are private
// copies, never views into tree or source memory.
func KNNSearchPaged(ft *rtree.FlatTree, src LeafSource, q []float64, k int) Result {
	sc := flatPool.Get().(*flatScratch)
	res := knnPaged(ft, src, q, k, true, sc)
	flatPool.Put(sc)
	return res
}

// MeasureKNNPaged is the radii-and-access-counts-only variant; like
// MeasureKNNFlat it skips neighbor accumulation entirely. Queries run
// sequentially on purpose: the pager's seek accounting is positional
// (adjacent-page reads are seek-free), which interleaved concurrent
// queries would scramble.
func MeasureKNNPaged(ft *rtree.FlatTree, src LeafSource, queryPoints [][]float64, k int) []Result {
	out := make([]Result, len(queryPoints))
	sc := flatPool.Get().(*flatScratch)
	for i, q := range queryPoints {
		out[i] = knnPaged(ft, src, q, k, false, sc)
	}
	flatPool.Put(sc)
	return out
}

// knnPaged mirrors knnFlat with leaf rows fetched through src instead
// of ft.Points; it never touches the resident point matrix (asserted
// by a poisoned-matrix test).
func knnPaged(ft *rtree.FlatTree, src LeafSource, q []float64, k int, wantNeighbors bool, sc *flatScratch) Result {
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
	adopt := !isZeroCopy(src)
	dim := ft.Dim
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
			rows := src.LeafRows(start, end, sc.rows)
			if adopt && cap(rows) > cap(sc.rows) {
				sc.rows = rows
			}
			for i, r := 0, start; r < end; i, r = i+1, r+1 {
				row := rows[i*dim : i*dim+dim]
				d, ok := sqDistBounded(row, q, sc.best.max())
				if !ok {
					continue
				}
				sc.best.offer(d)
				if wantNeighbors {
					sc.nbrs.offerCopied(d, row)
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

// RangeSearchPaged counts the points within the sphere, reading leaf
// rows through src — bit-identical in count and access counts to
// RangeSearchFlat on the same tree.
func RangeSearchPaged(ft *rtree.FlatTree, src LeafSource, s Sphere) (points int, res Result) {
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
	adopt := !isZeroCopy(src)
	dim := ft.Dim
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
			rows := src.LeafRows(start, end, sc.rows)
			if adopt && cap(rows) > cap(sc.rows) {
				sc.rows = rows
			}
			for i, r := 0, start; r < end; i, r = i+1, r+1 {
				if _, ok := sqDistBounded(rows[i*dim:i*dim+dim], s.Center, r2); ok {
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
