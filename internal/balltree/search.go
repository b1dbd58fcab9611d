package balltree

import (
	"container/heap"
	"fmt"
	"math"

	"hdidx/internal/par"
	"hdidx/internal/query"
)

// MinDist returns the distance from q to the nearest point of n's page
// region. For an SR-tree page a point must lie inside both bounds, so
// the larger of the rectangle's and the ball's lower bound applies.
func (t *Tree) MinDist(n *Node, q []float64) float64 {
	d := t.dist(q, n.Center) - n.Radius
	if d < 0 {
		d = 0
	}
	if t.kind == SR {
		return math.Max(n.Rect.MinDist(q), d)
	}
	return d
}

// Intersects reports whether n's page region can hold a point within
// radius of center. The SS- and M-tree test the two balls directly
// rather than through MinDist, and the SR-tree through MinDist: the two
// forms can disagree in the last bit, and each keeps its structure's
// counts.
func (t *Tree) Intersects(n *Node, center []float64, radius float64) bool {
	if t.kind == SR {
		return t.MinDist(n, center) <= radius
	}
	return t.dist(center, n.Center) <= radius+n.Radius
}

// leafHits counts, for each query ball, the pages among leaves that
// intersect it.
func (t *Tree) leafHits(leaves []*Node, spheres []query.Sphere) []float64 {
	out := make([]float64, len(spheres))
	par.For(len(spheres), func(i int) {
		n := 0
		for _, l := range leaves {
			if t.Intersects(l, spheres[i].Center, spheres[i].Radius) {
				n++
			}
		}
		out[i] = float64(n)
	})
	return out
}

// MeasureLeafAccesses counts, for each query sphere, the leaf pages
// intersecting it: the leaf accesses of an optimal k-NN search with
// that final radius.
func MeasureLeafAccesses(t *Tree, spheres []query.Sphere) []float64 {
	return t.leafHits(t.leaves, spheres)
}

// Result reports the page accesses of one search.
type Result struct {
	Radius       float64
	LeafAccesses int
	DirAccesses  int
}

// KNNSearch runs the best-first k-NN search, visiting pages in order
// of their region's distance from q, and reports the pages accessed.
func KNNSearch(t *Tree, q []float64, k int) Result {
	if k <= 0 || k > t.NumPoints {
		panic(fmt.Sprintf("balltree: k = %d outside [1, %d]", k, t.NumPoints))
	}
	pq := &nodeHeap{{node: t.Root, dist: t.MinDist(t.Root, q)}}
	best := query.NewBoundedMaxHeap(k)
	var res Result
	for pq.Len() > 0 {
		e := heap.Pop(pq).(nodeEntry)
		if e.dist > best.Max() {
			break
		}
		if e.node.IsLeaf() {
			res.LeafAccesses++
			for _, p := range e.node.Points {
				best.Offer(t.dist(p, q))
			}
			continue
		}
		res.DirAccesses++
		for _, c := range e.node.Children {
			if d := t.MinDist(c, q); d <= best.Max() {
				heap.Push(pq, nodeEntry{node: c, dist: d})
			}
		}
	}
	res.Radius = best.Max()
	return res
}

type nodeEntry struct {
	node *Node
	dist float64
}

type nodeHeap []nodeEntry

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(nodeEntry)) }
func (h *nodeHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
