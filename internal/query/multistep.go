package query

import (
	"container/heap"
	"fmt"
	"math"

	"hdidx/internal/rtree"
	"hdidx/internal/vec"
)

// Optimal multi-step k-NN search (Seidl & Kriegel, SIGMOD 1998), the
// algorithm behind the paper's Section 6.2 application: the index
// stores a contractive projection of the data (here: a prefix of the
// KLT-ordered dimensions) and the full vectors live in an "object
// server". The search ranks index entries by projected distance,
// fetches full vectors in that order, and stops as soon as the next
// projected distance exceeds the k-th best full-space distance — which
// is optimal: no correct algorithm fetches fewer objects.

// Ranking streams the points of a tree in increasing order of a
// distance to a fixed query, counting the pages it opens.
type Ranking struct {
	q            []float64
	pq           rankHeap
	LeafAccesses int
	DirAccesses  int
}

// NewRanking starts an incremental nearest-first traversal of t for
// the query q (in the tree's space).
func NewRanking(t *rtree.Tree, q []float64) *Ranking {
	if len(q) != t.Dim {
		panic(fmt.Sprintf("query: ranking query dimension %d != tree dimension %d", len(q), t.Dim))
	}
	r := &Ranking{q: q}
	heap.Push(&r.pq, rankEntry{node: t.Root, dist: t.Root.Rect.MinSqDist(q)})
	return r
}

// Next returns the next closest point and its squared distance, or
// (nil, 0) when the tree is exhausted.
func (r *Ranking) Next() ([]float64, float64) {
	for r.pq.Len() > 0 {
		e := heap.Pop(&r.pq).(rankEntry)
		if e.point != nil {
			return e.point, e.dist
		}
		if e.node.IsLeaf() {
			r.LeafAccesses++
			for _, p := range e.node.Points {
				heap.Push(&r.pq, rankEntry{point: p, dist: vec.SqDist(p, r.q)})
			}
			continue
		}
		r.DirAccesses++
		for _, c := range e.node.Children {
			heap.Push(&r.pq, rankEntry{node: c, dist: c.Rect.MinSqDist(r.q)})
		}
	}
	return nil, 0
}

type rankEntry struct {
	node  *rtree.Node
	point []float64
	dist  float64
}

type rankHeap []rankEntry

func (h rankHeap) Len() int            { return len(h) }
func (h rankHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h rankHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *rankHeap) Push(x interface{}) { *h = append(*h, x.(rankEntry)) }
func (h *rankHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// MultiStepResult reports one multi-step k-NN execution.
type MultiStepResult struct {
	// Radius is the full-space distance to the k-th neighbor.
	Radius float64
	// IndexLeafAccesses / IndexDirAccesses count index pages opened.
	IndexLeafAccesses int
	IndexDirAccesses  int
	// ObjectAccesses counts full vectors fetched from the object
	// server.
	ObjectAccesses int
	// Neighbors are the k nearest full-space vectors, closest first.
	Neighbors [][]float64
}

// MultiStepKNN runs the optimal multi-step k-NN: t indexes
// project(full vector) for every dataset point; lookup maps an indexed
// (projected) point back to its full vector. The projection must be
// contractive: dist(project(a), project(b)) <= dist(a, b) for all a, b
// — true for any coordinate-prefix of an isometric transform like the
// KLT. q is the full-space query.
func MultiStepKNN(t *rtree.Tree, q []float64, k int, project func([]float64) []float64, lookup func([]float64) []float64) MultiStepResult {
	if k <= 0 || k > t.NumPoints {
		panic(fmt.Sprintf("query: k = %d outside [1, %d]", k, t.NumPoints))
	}
	qProj := project(q)
	rank := NewRanking(t, qProj)
	best := NewBoundedMaxHeap(k)
	nbrs := neighborHeap{k: k}
	res := MultiStepResult{}
	for {
		p, projDist := rank.Next()
		if p == nil {
			break
		}
		// Optimal stop: the projection is contractive, so no unseen
		// object can beat the current k-th distance once the projected
		// distance exceeds it.
		if best.Full() && projDist > best.Max() {
			break
		}
		full := lookup(p)
		res.ObjectAccesses++
		d := vec.SqDist(full, q)
		best.Offer(d)
		nbrs.offer(d, full)
	}
	res.IndexLeafAccesses = rank.LeafAccesses
	res.IndexDirAccesses = rank.DirAccesses
	res.Radius = math.Sqrt(best.Max())
	res.Neighbors = nbrs.extract()
	return res
}

// PrefixProjector builds the projected dataset for a prefix-dimension
// index over full and returns it together with the project/lookup pair
// MultiStepKNN needs. Projections share storage with the full vectors;
// lookup resolves them by the identity of their first element, which
// survives the bulk loader's reordering.
func PrefixProjector(full [][]float64, dims int) (proj [][]float64, project func([]float64) []float64, lookup func([]float64) []float64) {
	if dims < 1 {
		panic("query: prefix projector needs at least one dimension")
	}
	table := make(map[*float64][]float64, len(full))
	proj = make([][]float64, len(full))
	for i, p := range full {
		if dims > len(p) {
			panic(fmt.Sprintf("query: prefix %d exceeds dimensionality %d", dims, len(p)))
		}
		proj[i] = p[:dims]
		table[&p[0]] = p
	}
	project = func(q []float64) []float64 { return q[:dims] }
	lookup = func(p []float64) []float64 {
		f, ok := table[&p[0]]
		if !ok {
			panic("query: object server lookup of unknown point")
		}
		return f
	}
	return proj, project, lookup
}
