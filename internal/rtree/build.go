package rtree

import (
	"fmt"
	"math"

	"hdidx/internal/mbr"
	"hdidx/internal/par"
	"hdidx/internal/vec"
)

// BuildParams parameterizes the bulk loader. Capacities are float64 so
// that the mini-index builds of the predictors can scale them by the
// sampling fraction (a 1/10 sample uses a leaf capacity of C/10, which
// is generally fractional) while keeping the same tree structure.
type BuildParams struct {
	// LeafCap is the effective data page capacity in points.
	LeafCap float64
	// DirCap is the effective directory page capacity in entries.
	DirCap float64
	// Height forces the tree height when positive; 0 derives the
	// minimal height from the point count. The predictors force the
	// height of mini-indexes to the full index's height to preserve
	// structural similarity.
	Height int
	// Split selects the dimension-choice strategy for binary splits.
	// The default (SplitMaxVariance) is the VAMSplit strategy the
	// paper uses; SplitLongestSide is provided for ablations.
	Split SplitStrategy
}

// SplitStrategy selects how the bulk loader picks the split dimension.
type SplitStrategy int

const (
	// SplitMaxVariance splits on the dimension of maximum variance
	// (VAMSplit, the paper's choice).
	SplitMaxVariance SplitStrategy = iota
	// SplitLongestSide splits on the dimension where the point set's
	// bounding box is widest (an ablation alternative).
	SplitLongestSide
)

// ParamsForGeometry returns the build parameters of the full on-disk
// index under g.
func ParamsForGeometry(g Geometry) BuildParams {
	return BuildParams{
		LeafCap: float64(g.EffDataCapacity()),
		DirCap:  float64(g.EffDirCapacity()),
	}
}

// Scaled returns a copy of p with the leaf capacity multiplied by the
// sampling fraction zeta and the height forced to fullHeight, which is
// how the paper builds structurally similar mini-indexes (Section 3.1).
func (p BuildParams) Scaled(zeta float64, fullHeight int) BuildParams {
	s := p
	s.LeafCap = p.LeafCap * zeta
	s.Height = fullHeight
	return s
}

// DeriveHeight returns the minimal height of a tree on n points under
// the parameters (ignoring a forced Height).
func (p BuildParams) DeriveHeight(n int) int {
	h := 1
	cap := p.LeafCap
	for cap < float64(n) {
		cap *= p.DirCap
		h++
	}
	return h
}

// subtreeCap returns the point capacity of a subtree rooted at level.
func (p BuildParams) subtreeCap(level int) float64 {
	cap := p.LeafCap
	for l := 2; l <= level; l++ {
		cap *= p.DirCap
	}
	return cap
}

// forkMinPoints is the smallest half a VAMSplit partition hands to the
// worker pool. Below it the fork/join bookkeeping outweighs the split
// work (one variance pass plus a quickselect over the half). It is a
// variable so tests can lower it to exercise the parallel paths on
// small inputs.
var forkMinPoints = 4096

// Build bulk-loads a tree over pts. It partitions its own copy of the
// slice header, so the caller's slice keeps its order; the point
// slices themselves are retained, never copied or modified. It panics
// on an empty input or non-positive capacities.
//
// When the shared worker pool (internal/par) has more than one worker,
// sibling subtrees build concurrently. The result is bit-identical to
// the single-goroutine build: siblings partition disjoint subslices of
// pts, every per-subtree computation (variance pass, Hoare
// quickselect, MBR extension) sees exactly the input it would see
// sequentially, and child order is preserved across forks — scheduling
// affects only timing, never values.
func Build(pts [][]float64, params BuildParams) *Tree {
	return buildWith(pts, params, par.NewGroup())
}

func buildWith(pts [][]float64, params BuildParams, g *par.Group) *Tree {
	if len(pts) == 0 {
		panic("rtree: Build on empty point set")
	}
	if params.LeafCap <= 0 || params.DirCap < 2 {
		panic(fmt.Sprintf("rtree: invalid capacities %+v", params))
	}
	height := params.Height
	if height <= 0 {
		height = params.DeriveHeight(len(pts))
	}
	b := &builder{params: params, g: g}
	pts = append([][]float64(nil), pts...)
	root := b.buildLevel(pts, height)
	t := &Tree{
		Root:      root,
		Dim:       len(pts[0]),
		Params:    params,
		NumPoints: len(pts),
	}
	finish(t)
	return t
}

// finish populates the tree's cached leaf list, node count, and
// breadth-first page IDs.
func finish(t *Tree) {
	t.leaves = t.leaves[:0]
	t.nodes = 0
	queue := []*Node{t.Root}
	id := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		n.PageID = id
		id++
		t.nodes++
		if n.IsLeaf() {
			t.leaves = append(t.leaves, n)
		} else {
			queue = append(queue, n.Children...)
		}
	}
}

type builder struct {
	params BuildParams
	// g is the fork-join group sibling subtree builds fan out on; nil
	// builds sequentially (the on-disk external builder and the
	// test-only BuildSequential oracle).
	g *par.Group
}

// buildLevel builds a subtree of the given height (paper:
// BuildTreeLevel). Splitting follows the VAMSplit strategy: recursive
// binary splits on the maximum-variance dimension at positions that
// are multiples of the subtree capacity, implemented with Hoare's
// find.
func (b *builder) buildLevel(pts [][]float64, level int) *Node {
	if level == 1 {
		return &Node{Level: 1, Rect: mbr.Bound(pts), Points: pts}
	}
	subcap := b.params.subtreeCap(level - 1)
	k := int(math.Ceil(float64(len(pts)) / subcap))
	if k < 1 {
		k = 1
	}
	if k > len(pts) {
		// Degenerate mini-index case: fewer points than subtrees.
		k = len(pts)
	}
	maxFan := int(math.Ceil(b.params.DirCap))
	if k > maxFan {
		k = maxFan
	}
	node := &Node{Level: level, Children: make([]*Node, 0, k)}
	b.splitInto(pts, k, subcap, level-1, node)
	node.Rect = node.Children[0].Rect.Clone()
	for _, c := range node.Children[1:] {
		node.Rect.ExtendRect(c.Rect)
	}
	return node
}

// splitInto partitions pts into k groups by recursive maximum-variance
// binary splits and appends the built child subtrees to parent.
func (b *builder) splitInto(pts [][]float64, k int, subcap float64, childLevel int, parent *Node) {
	if k == 1 {
		parent.Children = append(parent.Children, b.buildLevel(pts, childLevel))
		return
	}
	kl, cut := chooseCut(len(pts), k, subcap)
	if cut == 0 {
		// Cannot split sensibly (degenerate sample); put everything in
		// one child.
		parent.Children = append(parent.Children, b.buildLevel(pts, childLevel))
		return
	}
	var dim int
	if b.params.Split == SplitLongestSide {
		dim = mbr.Bound(pts).LongestDim()
	} else {
		dim = vec.MaxVarianceDim(pts)
	}
	left, right := vec.PartitionByDim(pts, dim, cut)
	if b.g != nil && len(left) >= forkMinPoints && len(right) >= forkMinPoints {
		// Fork the right half onto the pool. left and right are
		// disjoint subslices of pts, so the two recursions never touch
		// the same memory; the right half's children collect into a
		// detached side node and are appended only after join, keeping
		// child order — and therefore the whole tree — bit-identical
		// to the sequential build.
		side := &Node{}
		join := b.g.Fork(func() {
			b.splitInto(right, k-kl, subcap, childLevel, side)
		})
		b.splitInto(left, kl, subcap, childLevel, parent)
		join()
		parent.Children = append(parent.Children, side.Children...)
		return
	}
	b.splitInto(left, kl, subcap, childLevel, parent)
	b.splitInto(right, k-kl, subcap, childLevel, parent)
}

// chooseCut picks the VAMSplit cut position for dividing n points into
// k subtrees of capacity subcap: kl subtrees go left and cut points go
// with them, at a multiple of the subtree capacity nearest the median
// so that left subtrees pack full. It returns (0, 0) when no valid cut
// exists.
func chooseCut(n, k int, subcap float64) (kl, cut int) {
	kl = k / 2
	kr := k - kl
	cut = int(math.Round(float64(kl) * subcap))
	// The right side must fit into kr subtrees.
	if minCut := n - int(math.Floor(float64(kr)*subcap)); cut < minCut {
		cut = minCut
	}
	if maxCut := int(math.Floor(float64(kl) * subcap)); cut > maxCut && maxCut >= 1 {
		cut = maxCut
	}
	// Every subtree needs at least one point.
	if cut < kl {
		cut = kl
	}
	if n-cut < kr {
		cut = n - kr
	}
	if cut <= 0 || cut >= n {
		return 0, 0
	}
	return kl, cut
}
