// Package balltree implements the ball-bounded index structures of the
// paper's Section 4.7: the SS-tree (White & Jain, ICDE 1996), the
// SR-tree (Katayama & Satoh, SIGMOD 1997) and the M-tree (Ciaccia,
// Patella & Zezula, VLDB 1997). Every page is bounded by a ball, a
// center with a covering radius; an SR-tree page is also bounded by its
// minimal bounding rectangle, and its region is the intersection of
// the two bounds, which prunes better than either alone.
//
// The SS- and SR-tree have no bulk loader of their own: they bound the
// pages of the VAMSplit partition rtree.Build makes, an SS-tree page by
// a ball around the centroid of its points. The M-tree partitions
// around sampled pivots (Ciaccia & Patella, ADC 1998, the paper's
// reference [10]) and needs only a metric, not coordinates.
//
// Section 4.7 claims the sampling technique applies to every index that
// organizes data in fixed-capacity pages. Predict instantiates it for
// all three: build a mini tree with the structure's own loader on a
// sample, grow its leaf balls by SphereCompensationFactor (and an
// SR-tree's leaf rectangles by Theorem 1), and count query-ball
// intersections.
package balltree

import (
	"fmt"
	"math"
	"math/rand"

	"hdidx/internal/mbr"
	"hdidx/internal/rtree"
	"hdidx/internal/vec"
)

// Kind names one of the three structures.
type Kind int

const (
	// SS bounds each VAMSplit page by a ball around its centroid.
	SS Kind = iota
	// SR bounds each VAMSplit page by its rectangle and that ball.
	SR
	// M partitions around sampled pivots; a page's ball is centered on
	// its routing object.
	M
)

// DistFunc is a metric on points.
type DistFunc func(a, b []float64) float64

// Node is one page: a ball (Center, Radius) covering the subtree and,
// in an SR-tree, the subtree's minimal bounding rectangle. Leaves
// (Level 1) hold points, directory nodes children.
type Node struct {
	Level    int
	Center   []float64
	Radius   float64
	Rect     mbr.Rect
	Children []*Node
	Points   [][]float64
}

// IsLeaf reports whether the node is a data page.
func (n *Node) IsLeaf() bool { return n.Level == 1 }

// BuildParams parameterizes the bulk loaders. Capacities are float64 so
// that mini-index builds can scale them by a sampling fraction, as for
// the R*-tree.
type BuildParams struct {
	LeafCap float64
	DirCap  float64
	// Height forces the tree height when positive; 0 derives the
	// minimal height from the point count.
	Height int
}

// Scaled returns p with the leaf capacity scaled by zeta and the
// height forced to fullHeight: the paper's structurally similar
// mini-index (Section 3.1).
func (p BuildParams) Scaled(zeta float64, fullHeight int) BuildParams {
	p.LeafCap *= zeta
	p.Height = fullHeight
	return p
}

// DeriveHeight returns the minimal height of a tree on n points.
func (p BuildParams) DeriveHeight(n int) int { return p.rtree().DeriveHeight(n) }

func (p BuildParams) rtree() rtree.BuildParams {
	return rtree.BuildParams{LeafCap: p.LeafCap, DirCap: p.DirCap, Height: p.Height}
}

// Tree is a bulk-loaded ball tree. Its height is Root.Level.
type Tree struct {
	Root      *Node
	NumPoints int
	kind      Kind
	dist      DistFunc
	leaves    []*Node
}

// Leaves returns the leaf pages in build order (owned by the tree).
func (t *Tree) Leaves() []*Node { return t.leaves }

func newTree(kind Kind, dist DistFunc, root *Node, n int) *Tree {
	t := &Tree{Root: root, NumPoints: n, kind: kind, dist: dist}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			t.leaves = append(t.leaves, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return t
}

func checkBuild(pts [][]float64, p BuildParams) {
	if len(pts) == 0 {
		panic("balltree: Build on empty point set")
	}
	if p.LeafCap <= 0 || p.DirCap < 2 {
		panic(fmt.Sprintf("balltree: invalid capacities %+v", p))
	}
}

// Build bulk-loads a Euclidean tree of kind k over pts. The SS- and
// SR-tree bound the pages of rtree.Build's VAMSplit partition: an
// SS-tree page by a ball around its centroid, an SR-tree page by that
// ball and its rectangle. The M-tree is BuildM's with pivots drawn from
// seed, which the other two ignore. Every kind retains the point
// slices but leaves pts in its order, and no point is modified.
func Build(k Kind, pts [][]float64, p BuildParams, seed int64) *Tree {
	if k == M {
		return BuildM(pts, p, vec.Dist, seed)
	}
	return buildVAMSplit(k, pts, p)
}

func buildVAMSplit(kind Kind, pts [][]float64, p BuildParams) *Tree {
	checkBuild(pts, p)
	var bound func(rn *rtree.Node) *Node
	bound = func(rn *rtree.Node) *Node {
		n := &Node{Level: rn.Level, Points: rn.Points}
		if kind == SR {
			n.Rect = rn.Rect
		}
		if n.IsLeaf() {
			n.boundPoints()
			return n
		}
		n.Children = make([]*Node, len(rn.Children))
		for i, c := range rn.Children {
			n.Children[i] = bound(c)
		}
		n.boundChildren()
		return n
	}
	return newTree(kind, vec.Dist, bound(rtree.Build(pts, p.rtree()).Root), len(pts))
}

// boundPoints centers a leaf's ball at the centroid of its points.
func (n *Node) boundPoints() {
	n.Center = make([]float64, len(n.Points[0]))
	vec.Mean(n.Points, n.Center)
	var r2 float64
	for _, p := range n.Points {
		if d := vec.SqDist(p, n.Center); d > r2 {
			r2 = d
		}
	}
	n.Radius = math.Sqrt(r2)
}

// boundChildren centers a directory node's ball at the point-count
// weighted mean of its children's centers, with a radius covering
// every child ball.
func (n *Node) boundChildren() {
	n.Center = make([]float64, len(n.Children[0].Center))
	total := 0
	for _, c := range n.Children {
		w := c.weight()
		total += w
		for j, v := range c.Center {
			n.Center[j] += v * float64(w)
		}
	}
	for j := range n.Center {
		n.Center[j] /= float64(total)
	}
	for _, c := range n.Children {
		if r := vec.Dist(n.Center, c.Center) + c.Radius; r > n.Radius {
			n.Radius = r
		}
	}
}

func (n *Node) weight() int {
	if n.IsLeaf() {
		return len(n.Points)
	}
	w := 0
	for _, c := range n.Children {
		w += c.weight()
	}
	return w
}

// BuildM bulk-loads an M-tree over pts under the metric dist,
// following Ciaccia and Patella: draw a pivot per subtree with seed,
// assign every point to its nearest pivot, recurse per group. A page's
// ball is centered on its routing object: a leaf's first point, a
// directory node's first child's pivot.
func BuildM(pts [][]float64, p BuildParams, dist DistFunc, seed int64) *Tree {
	checkBuild(pts, p)
	height := p.Height
	if height <= 0 {
		height = p.DeriveHeight(len(pts))
	}
	b := &pivotLoader{params: p, dist: dist, rng: rand.New(rand.NewSource(seed + 1))}
	root := b.buildLevel(append([][]float64(nil), pts...), height)
	return newTree(M, dist, root, len(pts))
}

type pivotLoader struct {
	params BuildParams
	dist   DistFunc
	rng    *rand.Rand
}

func (b *pivotLoader) buildLevel(pts [][]float64, level int) *Node {
	if level == 1 {
		pivot := pts[0]
		var r float64
		for _, p := range pts {
			if d := b.dist(p, pivot); d > r {
				r = d
			}
		}
		return &Node{Level: 1, Center: pivot, Radius: r, Points: pts}
	}
	subcap := b.params.LeafCap
	for l := 2; l < level; l++ {
		subcap *= b.params.DirCap
	}
	k := int(math.Ceil(float64(len(pts)) / subcap))
	if k < 1 {
		k = 1
	}
	if k > len(pts) {
		k = len(pts)
	}
	if maxFan := int(math.Ceil(b.params.DirCap)); k > maxFan {
		k = maxFan
	}
	groups := b.partition(pts, k, subcap)
	n := &Node{Level: level, Children: make([]*Node, 0, len(groups))}
	for _, g := range groups {
		n.Children = append(n.Children, b.buildLevel(g, level-1))
	}
	n.Center = n.Children[0].Center
	for _, c := range n.Children {
		if r := b.dist(n.Center, c.Center) + c.Radius; r > n.Radius {
			n.Radius = r
		}
	}
	return n
}

// partition assigns points to k sampled pivots by nearest distance,
// then rebalances groups exceeding the subtree capacity by spilling
// their farthest points to the nearest non-full pivot.
func (b *pivotLoader) partition(pts [][]float64, k int, subcap float64) [][][]float64 {
	if k == 1 {
		return [][][]float64{pts}
	}
	pivots := make([][]float64, k)
	for i, idx := range b.rng.Perm(len(pts))[:k] {
		pivots[i] = pts[idx]
	}
	groups := make([][][]float64, k)
	for _, p := range pts {
		best, bestD := 0, math.Inf(1)
		for i, pv := range pivots {
			if d := b.dist(p, pv); d < bestD {
				best, bestD = i, d
			}
		}
		groups[best] = append(groups[best], p)
	}
	capLimit := int(math.Ceil(subcap))
	for i := range groups {
		for len(groups[i]) > capLimit {
			// Move the point farthest from pivot i to its next-best
			// non-full pivot.
			far, farD := -1, -1.0
			for j, p := range groups[i] {
				if d := b.dist(p, pivots[i]); d > farD {
					far, farD = j, d
				}
			}
			p := groups[i][far]
			groups[i] = append(groups[i][:far], groups[i][far+1:]...)
			best, bestD := -1, math.Inf(1)
			for j := range groups {
				if j == i || len(groups[j]) >= capLimit {
					continue
				}
				if d := b.dist(p, pivots[j]); d < bestD {
					best, bestD = j, d
				}
			}
			if best < 0 {
				// Everything full: put it back and stop rebalancing.
				groups[i] = append(groups[i], p)
				break
			}
			groups[best] = append(groups[best], p)
		}
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// Validate checks the containment invariants: every point inside its
// leaf's ball (and rectangle), every child ball (and rectangle) inside
// its parent's, levels consecutive, and every point in exactly one
// leaf.
func (t *Tree) Validate() error {
	total := 0
	var rec func(n *Node) error
	rec = func(n *Node) error {
		if n.IsLeaf() {
			if len(n.Points) == 0 {
				return fmt.Errorf("balltree: empty leaf")
			}
			total += len(n.Points)
			for _, p := range n.Points {
				if t.kind == SR && !n.Rect.Contains(p) {
					return fmt.Errorf("balltree: point outside leaf rectangle")
				}
				if t.dist(p, n.Center) > n.Radius+1e-9 {
					return fmt.Errorf("balltree: point outside leaf ball")
				}
			}
			return nil
		}
		for _, c := range n.Children {
			if c.Level != n.Level-1 {
				return fmt.Errorf("balltree: child level %d under %d", c.Level, n.Level)
			}
			if t.kind == SR && !n.Rect.ContainsRect(c.Rect) {
				return fmt.Errorf("balltree: child rectangle escapes parent")
			}
			if t.dist(n.Center, c.Center)+c.Radius > n.Radius+1e-9 {
				return fmt.Errorf("balltree: child ball escapes parent")
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.Root); err != nil {
		return err
	}
	if total != t.NumPoints {
		return fmt.Errorf("balltree: %d points in leaves, want %d", total, t.NumPoints)
	}
	return nil
}
