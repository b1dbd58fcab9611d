package query

import (
	"fmt"
	"math"
	"math/rand"

	"hdidx/internal/rtree"
	"hdidx/internal/vec"
)

// The pointer-tree searches below are the test oracles of the flat
// traversal: KNNSearchFlat and RangeSearchFlat over Tree.Flatten() must
// match them bit for bit in radius, access counts, and neighbor lists
// (flat_test.go). DensityBiasedWorkload is the paper's Section 4.2
// workload, used by the measurement tests.

// KNNSearch runs the optimal best-first (Hjaltason–Samet) k-NN search
// on the pointer tree and reports the pages accessed, including the k
// nearest points (closest first, distance ties broken by lexicographic
// point order).
func KNNSearch(t *rtree.Tree, q []float64, k int) Result {
	if k <= 0 || k > t.NumPoints {
		panic(fmt.Sprintf("query: k = %d outside [1, %d]", k, t.NumPoints))
	}
	var pq nodeHeap
	pq.push(nodeEntry{node: t.Root, dist: t.Root.Rect.MinSqDist(q)})
	best := newBoundedMaxHeap(k)
	nbrs := neighborHeap{k: k}
	res := Result{}
	for pq.len() > 0 {
		e := pq.pop()
		if best.full() && e.dist > best.max() {
			break
		}
		if e.node.IsLeaf() {
			res.LeafAccesses++
			for _, p := range e.node.Points {
				d := sqDist(p, q)
				best.offer(d)
				nbrs.offer(d, p)
			}
			continue
		}
		res.DirAccesses++
		for _, c := range e.node.Children {
			d := c.Rect.MinSqDist(q)
			if !best.full() || d <= best.max() {
				pq.push(nodeEntry{node: c, dist: d})
			}
		}
	}
	res.Radius = math.Sqrt(best.max())
	res.Neighbors = nbrs.extract()
	return res
}

// RangeSearch counts the points of the tree within the sphere and the
// pages accessed doing so.
func RangeSearch(t *rtree.Tree, s Sphere) (points int, res Result) {
	r2 := s.Radius * s.Radius
	var rec func(n *rtree.Node)
	rec = func(n *rtree.Node) {
		if n.Rect.MinSqDist(s.Center) > r2 {
			return
		}
		if n.IsLeaf() {
			res.LeafAccesses++
			for _, p := range n.Points {
				if sqDist(p, s.Center) <= r2 {
					points++
				}
			}
			return
		}
		res.DirAccesses++
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
	res.Radius = s.Radius
	return points, res
}

// nodeEntry / nodeHeap implement the best-first priority queue of the
// pointer oracle as a concrete slice-backed binary min-heap — no
// container/heap, so pushes append plain structs instead of boxing
// every entry into an interface{} allocation.
type nodeEntry struct {
	node *rtree.Node
	dist float64
}

type nodeHeap []nodeEntry

func (h nodeHeap) len() int { return len(h) }

func (h *nodeHeap) push(e nodeEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].dist <= s[i].dist {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *nodeHeap) pop() nodeEntry {
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
		if l < last && s[l].dist < s[min].dist {
			min = l
		}
		if r < last && s[r].dist < s[min].dist {
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

// DensityBiasedWorkload draws q query points uniformly from the
// dataset (so denser regions receive proportionally more queries) and
// computes their k-NN spheres against the full dataset. The query
// points are copies of the drawn dataset rows, so a workload stays
// valid even if the dataset is later transformed in place (KLT/DFT
// dimensionality reduction).
func DensityBiasedWorkload(data [][]float64, q, k int, rng *rand.Rand) []Sphere {
	if q <= 0 {
		panic("query: workload needs at least one query")
	}
	queryPoints := make([][]float64, q)
	for i := range queryPoints {
		queryPoints[i] = vec.Clone(data[rng.Intn(len(data))])
	}
	return ComputeSpheres(data, queryPoints, k)
}
