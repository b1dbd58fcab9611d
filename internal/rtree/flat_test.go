package rtree

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hdidx/internal/mbr"
	"hdidx/internal/vec"
)

func rectsEqual(a, b mbr.Rect) bool {
	if a.Dim() != b.Dim() {
		return false
	}
	for i := range a.Lo {
		if a.Lo[i] != b.Lo[i] || a.Hi[i] != b.Hi[i] {
			return false
		}
	}
	return true
}

// checkFlatten asserts every structural invariant of the linearized
// snapshot against the pointer tree it came from.
func checkFlatten(t *testing.T, tr *Tree) {
	t.Helper()
	f := tr.Flatten()
	if f.Dim != tr.Dim || f.Height != tr.Height() || f.NumPoints != tr.NumPoints {
		t.Fatalf("header: dim=%d height=%d points=%d, want %d/%d/%d",
			f.Dim, f.Height, f.NumPoints, tr.Dim, tr.Height(), tr.NumPoints)
	}
	if f.NumNodes() != tr.NumNodes() || f.NumLeaves != tr.NumLeaves() {
		t.Fatalf("counts: nodes=%d leaves=%d, want %d/%d",
			f.NumNodes(), f.NumLeaves, tr.NumNodes(), tr.NumLeaves())
	}
	if f.Rects.Len() != f.NumNodes() {
		t.Fatalf("rects: %d, want %d", f.Rects.Len(), f.NumNodes())
	}

	// BFS numbering matches the PageID numbering finish() assigns, and
	// each node's MBR and child range land at its BFS slot.
	var walk func(n *Node)
	walk = func(n *Node) {
		i := int32(n.PageID)
		r := f.Rects.At(int(i))
		if !rectsEqual(r, n.Rect) {
			t.Fatalf("node %d: rect %v, want %v", i, r, n.Rect)
		}
		if n.IsLeaf() {
			if f.ChildCount[i] != 0 {
				t.Fatalf("leaf %d has child count %d", i, f.ChildCount[i])
			}
			if int(f.PtCount[i]) != len(n.Points) {
				t.Fatalf("leaf %d: %d points, want %d", i, f.PtCount[i], len(n.Points))
			}
			for j, p := range n.Points {
				row := f.Points.Row(int(f.PtStart[i]) + j)
				for d := range p {
					if row[d] != p[d] {
						t.Fatalf("leaf %d point %d: %v, want %v", i, j, row, p)
					}
				}
			}
			return
		}
		if int(f.ChildCount[i]) != len(n.Children) {
			t.Fatalf("node %d: child count %d, want %d", i, f.ChildCount[i], len(n.Children))
		}
		for j, c := range n.Children {
			if got := int(f.ChildStart[i]) + j; got != c.PageID {
				t.Fatalf("node %d child %d: flat index %d, PageID %d", i, j, got, c.PageID)
			}
			walk(c)
		}
	}
	walk(tr.Root)

	// All leaves occupy the contiguous BFS tail, and the leaf-tail view
	// matches the tree's leaf rectangles in build order.
	tail := f.NumNodes() - f.NumLeaves
	for i := 0; i < f.NumNodes(); i++ {
		if leaf := f.ChildCount[i] == 0; leaf != (i >= tail) {
			t.Fatalf("node %d: leaf=%v, tail starts at %d", i, leaf, tail)
		}
	}
	ls := f.Rects.Slice(tail, f.NumLeaves)
	want := tr.LeafRects()
	if ls.Len() != len(want) {
		t.Fatalf("leaf set: %d rects, want %d", ls.Len(), len(want))
	}
	for i := 0; i < ls.Len(); i++ {
		if !rectsEqual(ls.At(i), want[i]) {
			t.Fatalf("leaf rect %d: %v, want %v", i, ls.At(i), want[i])
		}
	}

	// Leaf point ranges partition the packed matrix in leaf order.
	var off int32
	for i := tail; i < f.NumNodes(); i++ {
		if f.PtStart[i] != off {
			t.Fatalf("leaf %d: PtStart %d, want %d", i, f.PtStart[i], off)
		}
		off += f.PtCount[i]
	}
	if int(off) != f.NumPoints || f.Points.N != f.NumPoints {
		t.Fatalf("points: packed %d rows, matrix %d, want %d", off, f.Points.N, f.NumPoints)
	}

	// What a snapshot file would reopen passes every AssembleFlat
	// check, the rectangles' containment included.
	if _, err := AssembleFlat(f.Dim, f.Height, f.NumPoints, f.NumLeaves,
		f.ChildStart, f.ChildCount, f.PtStart, f.PtCount, f.Rects, f.Points); err != nil {
		t.Fatalf("flattened tree fails AssembleFlat: %v", err)
	}
}

func TestFlattenMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		dim := 1 + rng.Intn(16)
		n := 1 + rng.Intn(3000)
		params := BuildParams{
			LeafCap: float64(2 + rng.Intn(31)),
			DirCap:  float64(2 + rng.Intn(15)),
		}
		pts := uniformPoints(n, dim, int64(trial))
		checkFlatten(t, Build(pts, params))
	}
}

func TestFlattenSingleLeaf(t *testing.T) {
	pts := uniformPoints(5, 3, 7)
	checkFlatten(t, Build(pts, BuildParams{LeafCap: 10, DirCap: 4}))
}

func TestFlattenEmptyTree(t *testing.T) {
	f := (&Tree{}).Flatten()
	if f.NumNodes() != 0 || f.NumPoints != 0 || f.NumLeaves != 0 || f.Height != 0 {
		t.Fatalf("empty tree flattened to %+v", f)
	}
	if f.Rects != nil {
		t.Fatalf("empty tree has rects")
	}
}

func TestFlattenAfterInsert(t *testing.T) {
	// Flatten must pick up the post-insert structure (refresh path).
	pts := uniformPoints(200, 4, 9)
	tr := NewDynamicCustom(4, 8, 6)
	for _, p := range pts {
		tr.Insert(p)
	}
	checkFlatten(t, &tr.Tree)
}

// TestFlattenWithForwardsToFlatten pins the compatibility shim: the
// empty-options FlattenWith is Flatten.
func TestFlattenWithForwardsToFlatten(t *testing.T) {
	pts := uniformPoints(50, 3, 21)
	tr := Build(pts, BuildParams{LeafCap: 8, DirCap: 4})
	if !reflect.DeepEqual(tr.FlattenWith(FlattenOptions{}), tr.Flatten()) {
		t.Fatal("FlattenWith(FlattenOptions{}) differs from Flatten()")
	}
}

// TestAssembleFlatChecksContainment hand-assembles a three-point tree
// (a root over two leaves) and makes one rectangle lie at a time: a
// row outside its leaf, a child outside its parent, a NaN corner. Each
// must fail naming the node; the honest tree and a row on a rectangle's
// boundary assemble.
func TestAssembleFlatChecksContainment(t *testing.T) {
	assemble := func(mutate func(lo, hi, pts []float64)) error {
		lo := []float64{0, 0, 0, 0, 3, 2}
		hi := []float64{3, 2, 1, 1, 3, 2}
		pts := []float64{0, 0, 1, 1, 3, 2}
		mutate(lo, hi, pts)
		_, err := AssembleFlat(2, 2, 3, 2,
			[]int32{1, 0, 0}, []int32{2, 0, 0}, []int32{0, 0, 2}, []int32{0, 2, 1},
			mbr.RectSetFromCorners(lo, hi, 3, 2), vec.Matrix{Data: pts, N: 3, Dim: 2})
		return err
	}
	if err := assemble(func(lo, hi, pts []float64) {}); err != nil {
		t.Fatalf("honest tree: %v", err)
	}
	for _, c := range []struct {
		name, want string
		mutate     func(lo, hi, pts []float64)
	}{
		{"row outside its leaf", "leaf node 2", func(lo, hi, pts []float64) { pts[5] = 2.5 }},
		{"child outside its parent", "node 0 rectangle does not contain child node 1", func(lo, hi, pts []float64) { hi[3] = 2.5 }},
		{"inverted rectangle", "node 1 rectangle", func(lo, hi, pts []float64) { lo[2] = 2 }},
		{"NaN corner", "node 0 rectangle", func(lo, hi, pts []float64) { lo[1] = math.NaN() }},
	} {
		err := assemble(c.mutate)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: AssembleFlat returned %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
