package sstree

import (
	"container/heap"
	"fmt"
	"math"

	"hdidx/internal/par"
	"hdidx/internal/query"
	"hdidx/internal/vec"
)

// Result reports the page accesses of one SS-tree search.
type Result struct {
	Radius       float64
	LeafAccesses int
	DirAccesses  int
}

// KNNSearch runs the best-first k-NN search on the SS-tree and reports
// the pages accessed.
func KNNSearch(t *Tree, q []float64, k int) Result {
	if k <= 0 || k > t.NumPoints {
		panic(fmt.Sprintf("sstree: k = %d outside [1, %d]", k, t.NumPoints))
	}
	pq := &nodeHeap{}
	heap.Push(pq, nodeEntry{node: t.Root, dist: t.Root.MinDist(q)})
	var best []float64 // max-heap-free: small k, keep sorted insertion
	kth := math.Inf(1)
	res := Result{}
	for pq.Len() > 0 {
		e := heap.Pop(pq).(nodeEntry)
		if e.dist > kth {
			break
		}
		if e.node.IsLeaf() {
			res.LeafAccesses++
			for _, p := range e.node.Points {
				d := vec.Dist(p, q)
				best = insertBounded(best, d, k)
				if len(best) == k {
					kth = best[k-1]
				}
			}
			continue
		}
		res.DirAccesses++
		for _, c := range e.node.Children {
			d := c.MinDist(q)
			if d <= kth {
				heap.Push(pq, nodeEntry{node: c, dist: d})
			}
		}
	}
	res.Radius = kth
	return res
}

// insertBounded inserts d into the sorted slice best, keeping at most
// k elements.
func insertBounded(best []float64, d float64, k int) []float64 {
	i := len(best)
	for i > 0 && best[i-1] > d {
		i--
	}
	if i >= k {
		return best
	}
	if len(best) < k {
		best = append(best, 0)
	}
	copy(best[i+1:], best[i:])
	best[i] = d
	return best
}

// MeasureLeafAccesses counts, for each query sphere, the leaf spheres
// intersecting it (the access count of an optimal k-NN search with
// that final radius).
func MeasureLeafAccesses(t *Tree, spheres []query.Sphere) []float64 {
	out := make([]float64, len(spheres))
	par.For(len(spheres), func(i int) {
		n := 0
		for _, l := range t.Leaves() {
			if l.IntersectsSphere(spheres[i].Center, spheres[i].Radius) {
				n++
			}
		}
		out[i] = float64(n)
	})
	return out
}

type nodeEntry struct {
	node *Node
	dist float64
}

type nodeHeap []nodeEntry

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeEntry)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
