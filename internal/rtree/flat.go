package rtree

import (
	"fmt"

	"hdidx/internal/mbr"
	"hdidx/internal/vec"
)

// FlatTree is a linearized, structure-of-arrays snapshot of a Tree for
// cache-conscious traversal. Nodes are numbered in breadth-first order
// (node 0 is the root), matching the PageID numbering finish() assigns,
// so BFS layers — and therefore tree levels — occupy contiguous index
// ranges and all leaves form the tail [NumNodes-NumLeaves, NumNodes).
//
// The pointer tree's per-node headers are replaced by parallel arrays:
//
//   - ChildStart/ChildCount give node i's children as the contiguous
//     index range [ChildStart[i], ChildStart[i]+ChildCount[i]) — BFS
//     enqueues siblings consecutively, so child ranges need no pointer
//     or index list. ChildCount[i] == 0 identifies a leaf.
//   - Rects holds every node MBR in the same BFS order as one
//     mbr.RectSet, so pruning a whole child range is one pass over
//     contiguous corner memory (RectSet.MinSqDists).
//   - Points packs all leaf points into one row-major vec.Matrix in
//     leaf order; leaf i's rows are [PtStart[i], PtStart[i]+PtCount[i]),
//     so a leaf scan runs the flat early-exit distance kernels over
//     contiguous rows.
//
// A FlatTree is immutable after Flatten and safe for concurrent
// readers. It is a snapshot: dynamic inserts into the source tree do
// not propagate, callers re-flatten after mutating.
type FlatTree struct {
	// Dim is the dimensionality of the indexed points.
	Dim int
	// Height is the tree height (1 for a single leaf, 0 when empty).
	Height int
	// NumPoints and NumLeaves mirror the source tree's counts.
	NumPoints int
	NumLeaves int
	// ChildStart and ChildCount give each node's child index range;
	// ChildCount[i] == 0 marks node i as a leaf.
	ChildStart []int32
	ChildCount []int32
	// PtStart and PtCount give each leaf node's row range in Points
	// (both zero for directory nodes).
	PtStart []int32
	PtCount []int32
	// Rects holds all node MBRs in BFS order.
	Rects *mbr.RectSet
	// Points holds all leaf points packed in leaf order.
	Points vec.Matrix
}

// Flatten linearizes the tree into a FlatTree. The snapshot copies the
// MBR corners and point coordinates into contiguous arrays; the source
// tree is left untouched and later dynamic inserts into it do not
// propagate. Flatten costs one BFS pass over the tree — callers on a
// query hot path flatten once and share the result.
func (t *Tree) Flatten() *FlatTree {
	t.refresh()
	if t.Root == nil {
		return &FlatTree{}
	}
	n := t.nodes
	f := &FlatTree{
		Dim:        t.Dim,
		Height:     t.Root.Level,
		NumPoints:  t.NumPoints,
		NumLeaves:  len(t.leaves),
		ChildStart: make([]int32, n),
		ChildCount: make([]int32, n),
		PtStart:    make([]int32, n),
		PtCount:    make([]int32, n),
		Points:     vec.Matrix{Data: make([]float64, 0, t.NumPoints*t.Dim), Dim: t.Dim},
	}
	rects := make([]mbr.Rect, 0, n)
	queue := make([]*Node, 1, n)
	queue[0] = t.Root
	next := int32(1)
	var ptOff int32
	for i := 0; i < len(queue); i++ {
		nd := queue[i]
		rects = append(rects, nd.Rect)
		if nd.IsLeaf() {
			f.PtStart[i] = ptOff
			f.PtCount[i] = int32(len(nd.Points))
			ptOff += int32(len(nd.Points))
			f.Points.AppendRows(nd.Points)
			continue
		}
		f.ChildStart[i] = next
		f.ChildCount[i] = int32(len(nd.Children))
		next += int32(len(nd.Children))
		queue = append(queue, nd.Children...)
	}
	if int(next) != n || int(ptOff) != t.NumPoints {
		panic(fmt.Sprintf("rtree: flatten accounted %d nodes / %d points, want %d / %d",
			next, ptOff, n, t.NumPoints))
	}
	f.Rects = mbr.NewRectSet(rects)
	return f
}

// FlattenOptions is the empty option set of FlattenWith.
type FlattenOptions struct{}

// FlattenWith is Flatten. It exists only because the benchmark module
// (bench/trace.go) calls it; new code calls Flatten.
func (t *Tree) FlattenWith(FlattenOptions) *FlatTree { return t.Flatten() }

// AssembleFlat reconstructs a FlatTree from its raw arrays — the
// inverse of what the persistence layer serializes. It validates every
// structural invariant the traversal kernels rely on, so a tree
// assembled from untrusted bytes (a corrupted or foreign snapshot
// file) either comes back searchable or fails with an error — it can
// never panic a later search:
//
//   - parallel arrays agree in length and the counts are consistent;
//   - every directory node's child range lies inside the node array
//     and the ranges tile [1, n) in BFS order (so sibling ranges are
//     contiguous and every node except the root has one parent);
//   - leaves are exactly the BFS tail [n-numLeaves, n) and their point
//     row ranges tile [0, numPoints) in leaf order;
//   - every rectangle bounds what it covers (checkContainment), since
//     a search prunes whole subtrees by rectangles alone.
//
// The arrays are adopted, not copied; callers hand over ownership.
func AssembleFlat(dim, height, numPoints, numLeaves int,
	childStart, childCount, ptStart, ptCount []int32,
	rects *mbr.RectSet, points vec.Matrix) (*FlatTree, error) {

	n := len(childStart)
	if n == 0 {
		if dim != 0 || height != 0 || numPoints != 0 || numLeaves != 0 {
			return nil, fmt.Errorf("rtree: empty node array with dim=%d height=%d points=%d leaves=%d",
				dim, height, numPoints, numLeaves)
		}
		return &FlatTree{}, nil
	}
	if dim < 1 {
		return nil, fmt.Errorf("rtree: assemble dimension %d", dim)
	}
	if len(childCount) != n || len(ptStart) != n || len(ptCount) != n {
		return nil, fmt.Errorf("rtree: parallel node arrays disagree: %d/%d/%d/%d",
			n, len(childCount), len(ptStart), len(ptCount))
	}
	if numLeaves < 1 || numLeaves > n {
		return nil, fmt.Errorf("rtree: %d leaves of %d nodes", numLeaves, n)
	}
	if rects == nil || rects.Len() != n || rects.Dim() != dim {
		got, gotDim := 0, 0
		if rects != nil {
			got, gotDim = rects.Len(), rects.Dim()
		}
		return nil, fmt.Errorf("rtree: %d rectangles of dimension %d for %d nodes of dimension %d",
			got, gotDim, n, dim)
	}
	if points.N != numPoints || (numPoints > 0 && points.Dim != dim) ||
		len(points.Data) != numPoints*points.Dim {
		return nil, fmt.Errorf("rtree: point matrix %dx%d (%d values) for %d points of dimension %d",
			points.N, points.Dim, len(points.Data), numPoints, dim)
	}
	// BFS child ranges must tile [1, n): node 0 is the root, and every
	// later node is the child of exactly one earlier node, enqueued in
	// order. Walking the nodes in order and checking each directory
	// range continues where the previous one ended verifies all of
	// in-bounds, no-overlap, and full coverage in one pass.
	next := int32(1)
	leafSeen := 0
	var ptOff int32
	for i := 0; i < n; i++ {
		cc := childCount[i]
		if cc == 0 {
			if i < n-numLeaves {
				return nil, fmt.Errorf("rtree: leaf node %d before the leaf tail [%d, %d)", i, n-numLeaves, n)
			}
			leafSeen++
			if ptStart[i] != ptOff || ptCount[i] < 0 {
				return nil, fmt.Errorf("rtree: leaf %d rows [%d, %d+%d) break the packed point order at %d",
					i, ptStart[i], ptStart[i], ptCount[i], ptOff)
			}
			ptOff += ptCount[i]
			if ptOff > int32(numPoints) {
				return nil, fmt.Errorf("rtree: leaf rows overrun %d points", numPoints)
			}
			continue
		}
		if i >= n-numLeaves {
			return nil, fmt.Errorf("rtree: directory node %d inside the leaf tail [%d, %d)", i, n-numLeaves, n)
		}
		if cc < 0 || childStart[i] != next || int64(next)+int64(cc) > int64(n) {
			return nil, fmt.Errorf("rtree: node %d children [%d, %d+%d) break the BFS order at %d",
				i, childStart[i], childStart[i], cc, next)
		}
		next += cc
		if ptStart[i] != 0 || ptCount[i] != 0 {
			return nil, fmt.Errorf("rtree: directory node %d carries point rows", i)
		}
	}
	if int(next) != n {
		return nil, fmt.Errorf("rtree: child ranges cover %d of %d nodes", next, n)
	}
	if leafSeen != numLeaves {
		return nil, fmt.Errorf("rtree: %d leaf nodes, header says %d", leafSeen, numLeaves)
	}
	if int(ptOff) != numPoints {
		return nil, fmt.Errorf("rtree: leaf rows cover %d of %d points", ptOff, numPoints)
	}
	if height < 1 {
		return nil, fmt.Errorf("rtree: height %d for a %d-node tree", height, n)
	}
	if err := checkContainment(dim, childStart, childCount, ptStart, ptCount, rects, points); err != nil {
		return nil, err
	}
	return &FlatTree{
		Dim:        dim,
		Height:     height,
		NumPoints:  numPoints,
		NumLeaves:  numLeaves,
		ChildStart: childStart,
		ChildCount: childCount,
		PtStart:    ptStart,
		PtCount:    ptCount,
		Rects:      rects,
		Points:     points,
	}, nil
}

// checkContainment verifies, over node arrays whose shape AssembleFlat
// has checked, that every non-empty node's rectangle has Lo <= Hi in
// every dimension (which NaN fails) and contains each non-empty
// child's rectangle, or each of its rows. A leaf without rows is empty.
// A rectangle that lies prunes answers without any other symptom.
// Flatten copies exact min/max corners, so no tolerance is needed.
func checkContainment(dim int, childStart, childCount, ptStart, ptCount []int32,
	rects *mbr.RectSet, points vec.Matrix) error {

	lo, hi := rects.Corners()
	empty := func(i int32) bool { return childCount[i] == 0 && ptCount[i] == 0 }
	for i := range childStart {
		if empty(int32(i)) {
			continue
		}
		nlo, nhi := lo[i*dim:(i+1)*dim], hi[i*dim:(i+1)*dim]
		for d := range nlo {
			if !(nlo[d] <= nhi[d]) {
				return fmt.Errorf("rtree: node %d rectangle [%v, %v] is inverted in dimension %d", i, nlo[d], nhi[d], d)
			}
		}
		if childCount[i] == 0 {
			for r := int(ptStart[i]); r < int(ptStart[i]+ptCount[i]); r++ {
				row := points.Data[r*dim : (r+1)*dim]
				nlo, nhi := nlo[:len(row)], nhi[:len(row)] // equal lengths drop the bounds checks
				for d, v := range row {
					if !(nlo[d] <= v && v <= nhi[d]) {
						return fmt.Errorf("rtree: leaf node %d rectangle does not contain its row %d in dimension %d", i, r, d)
					}
				}
			}
			continue
		}
		for c := childStart[i]; c < childStart[i]+childCount[i]; c++ {
			if empty(c) {
				continue
			}
			clo, chi := lo[int(c)*dim:int(c+1)*dim], hi[int(c)*dim:int(c+1)*dim]
			for d := range nlo {
				if !(nlo[d] <= clo[d] && chi[d] <= nhi[d]) {
					return fmt.Errorf("rtree: node %d rectangle does not contain child node %d in dimension %d", i, c, d)
				}
			}
		}
	}
	return nil
}

// NumNodes returns the total number of nodes (directory plus leaf).
func (f *FlatTree) NumNodes() int { return len(f.ChildStart) }
