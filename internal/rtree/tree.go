package rtree

import (
	"fmt"
	"math"

	"hdidx/internal/mbr"
)

// Node is one page of the index. Leaves (Level 1) hold points;
// directory nodes hold children. Rect is the node's minimal bounding
// rectangle.
type Node struct {
	Level    int
	Rect     mbr.Rect
	Children []*Node
	Points   [][]float64
	// PageID is the node's position in a breadth-first page numbering,
	// used by the on-disk simulation to place pages.
	PageID int
}

// IsLeaf reports whether the node is a data page.
func (n *Node) IsLeaf() bool { return n.Level == 1 }

// Tree is a VAMSplit R*-tree, either bulk-loaded (Build, BuildOnDisk)
// or grown by dynamic insertion (NewDynamic, Insert).
type Tree struct {
	Root   *Node
	Dim    int
	Params BuildParams
	// NumPoints is the number of data points stored.
	NumPoints int

	leaves []*Node // cached leaf list in build order
	nodes  int
	dirty  bool // caches stale after dynamic inserts
}

// Height returns the height of the tree (1 for a single leaf).
func (t *Tree) Height() int {
	if t.Root == nil {
		return 0
	}
	return t.Root.Level
}

// NumLeaves returns the number of leaf pages.
func (t *Tree) NumLeaves() int {
	t.refresh()
	return len(t.leaves)
}

// NumNodes returns the total number of pages (directory plus leaf).
func (t *Tree) NumNodes() int {
	t.refresh()
	return t.nodes
}

// Leaves returns the leaf pages in build order. The slice is owned by
// the tree.
func (t *Tree) Leaves() []*Node {
	t.refresh()
	return t.leaves
}

func (t *Tree) refresh() {
	if t.dirty {
		if t.Root != nil {
			finish(t)
		} else {
			t.leaves, t.nodes = nil, 0
		}
		t.dirty = false
	}
}

// LeafRects returns copies of all leaf MBRs in build order.
func (t *Tree) LeafRects() []mbr.Rect {
	leaves := t.Leaves()
	rects := make([]mbr.Rect, len(leaves))
	for i, l := range leaves {
		rects[i] = l.Rect.Clone()
	}
	return rects
}

// occupancy bounds the entries of a page: a leaf holds [minLeaf,
// maxLeaf] points and a directory node [minDir, maxDir] children. The
// root is exempt from the minimums; a zero maximum is unbounded.
type occupancy struct{ minLeaf, maxLeaf, minDir, maxDir int }

// check reports whether page n's fanout breaks the bounds.
func (o occupancy) check(n *Node, root bool) error {
	lo, hi, what := o.minDir, o.maxDir, "directory node"
	if n.IsLeaf() {
		lo, hi, what = o.minLeaf, o.maxLeaf, "leaf"
	}
	if f := n.fanout(); (hi > 0 && f > hi) || (!root && f < lo) {
		return fmt.Errorf("rtree: %s at level %d holds %d entries, outside [%d, %d]", what, n.Level, f, lo, hi)
	}
	return nil
}

// Validate checks the structural invariants of the tree: level
// numbering, MBR containment of points and children, leaf point
// accounting, and page occupancy limits. The limits are the bulk
// loader's: no page is empty and a directory node holds at most
// ⌈DirCap⌉ children. Leaves have no upper limit: a forced height or a
// fractional LeafCap may pack a leaf past ⌈LeafCap⌉. A DynamicTree
// checks its own, tighter limits. It returns the first violation
// found.
func (t *Tree) Validate() error {
	return t.validate(occupancy{maxDir: int(math.Ceil(t.Params.DirCap))})
}

// Validate is Tree.Validate with the limits of R* insertion: every
// page within its capacity, and every page but the root at least at
// its minimum fill.
func (t *DynamicTree) Validate() error {
	return t.validate(occupancy{minLeaf: t.minLeaf, maxLeaf: t.maxLeaf, minDir: t.minDir, maxDir: t.maxDir})
}

func (t *Tree) validate(occ occupancy) error {
	if t.Root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	total := 0
	var rec func(n *Node) error
	rec = func(n *Node) error {
		if err := occ.check(n, n == t.Root); err != nil {
			return err
		}
		if n.IsLeaf() {
			if len(n.Points) == 0 {
				return fmt.Errorf("rtree: empty leaf")
			}
			total += len(n.Points)
			for _, p := range n.Points {
				if !n.Rect.Contains(p) {
					return fmt.Errorf("rtree: leaf MBR %v misses point %v", n.Rect, p)
				}
			}
			return nil
		}
		if len(n.Children) == 0 {
			return fmt.Errorf("rtree: directory node without children at level %d", n.Level)
		}
		for _, c := range n.Children {
			if c.Level != n.Level-1 {
				return fmt.Errorf("rtree: child level %d under level %d", c.Level, n.Level)
			}
			if !n.Rect.ContainsRect(c.Rect) {
				return fmt.Errorf("rtree: parent MBR does not contain child MBR")
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
		return fmt.Errorf("rtree: %d points in leaves, want %d", total, t.NumPoints)
	}
	return nil
}
