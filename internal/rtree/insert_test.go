package rtree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hdidx/internal/dataset"
	"hdidx/internal/mbr"
)

func dynamicWith(pts [][]float64, g Geometry) *DynamicTree {
	t := NewDynamic(g)
	for _, p := range pts {
		t.Insert(p)
	}
	return t
}

func TestInsertSinglePoint(t *testing.T) {
	tr := NewDynamic(NewGeometry(2))
	tr.Insert([]float64{1, 2})
	if tr.NumPoints != 1 || tr.Height() != 1 {
		t.Fatalf("points=%d height=%d", tr.NumPoints, tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGrowsTree(t *testing.T) {
	g := Geometry{Dim: 2, PageBytes: 256, Utilization: 1} // tiny pages: cap 32
	pts := uniformPoints(2000, 2, 41)
	tr := dynamicWith(pts, g)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Errorf("height = %d, want >= 2", tr.Height())
	}
	if tr.NumPoints != 2000 {
		t.Errorf("points = %d", tr.NumPoints)
	}
}

func TestInsertOccupancyBounds(t *testing.T) {
	g := Geometry{Dim: 4, PageBytes: 512, Utilization: 1}
	pts := uniformPoints(3000, 4, 42)
	tr := dynamicWith(pts, g)
	maxLeaf := g.MaxDataCapacity()
	for _, l := range tr.Leaves() {
		if len(l.Points) > maxLeaf {
			t.Fatalf("leaf holds %d > %d", len(l.Points), maxLeaf)
		}
	}
	// Dynamic utilization settles in the classic 55-85% band.
	occ := tr.AverageLeafOccupancy()
	if occ < 0.45 || occ > 0.95 {
		t.Errorf("utilization = %.2f, want dynamic-split band", occ)
	}
}

// TestInsertNarrowDirectoryStaysBalanced grows trees whose directory
// pages fit fewer than five entries — d >= 205 at 8 KB, and d = 60 at
// 2 KB — and checks after every insert that the height stays within
// ⌈log₂ N⌉ + 1, the bound a minimum directory fill of 2 guarantees.
// With a fill of 1 the R* split cuts off one-entry nodes and the tree
// grows into a chain, one level per few inserts.
func TestInsertNarrowDirectoryStaysBalanced(t *testing.T) {
	for _, c := range []struct {
		name string
		g    Geometry
		n    int
	}{
		{"d256", NewGeometry(256), 100},
		{"d360", NewGeometry(360), 80},
		{"d617", NewGeometry(617), 40},
		{"d60-2KB", Geometry{Dim: 60, PageBytes: 2048, Utilization: DefaultUtilization}, 1000},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := NewDynamic(c.g)
			for i, p := range uniformPoints(c.n, c.g.Dim, int64(c.g.Dim)) {
				tr.Insert(p)
				if bound := bits.Len(uint(i)) + 1; tr.Height() > bound {
					t.Fatalf("height %d after %d inserts, want <= ceil(log2 N) + 1 = %d", tr.Height(), i+1, bound)
				}
			}
			if tr.Height() < 3 {
				t.Fatalf("height %d: too few inserts to split a directory page", tr.Height())
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestValidateOccupancy checks that Validate enforces page occupancy:
// the minimum fill of a dynamic tree's non-root pages and the
// directory capacity of either kind of tree.
func TestValidateOccupancy(t *testing.T) {
	g := Geometry{Dim: 4, PageBytes: 512, Utilization: 1}
	tr := dynamicWith(uniformPoints(2000, 4, 44), g)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d, want a non-root directory node", tr.Height())
	}
	// Underfill a non-root directory node; its rectangle still bounds
	// what is left, so only the occupancy check can object.
	n := tr.Root.Children[0]
	kept := n.Children
	n.Children = n.Children[:1]
	tr.NumPoints -= countPoints(kept[1:])
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted a non-root directory node below the minimum fill")
	}
	n.Children = kept
	tr.NumPoints += countPoints(kept[1:])

	bulk := Build(uniformPoints(500, 4, 45), BuildParams{LeafCap: 8, DirCap: 4})
	if err := bulk.Validate(); err != nil {
		t.Fatal(err)
	}
	bulk.Params.DirCap = 2
	if err := bulk.Validate(); err == nil {
		t.Fatal("Validate accepted a directory node above its capacity")
	}
}

func countPoints(nodes []*Node) int {
	total := 0
	for _, n := range nodes {
		if n.IsLeaf() {
			total += len(n.Points)
		}
		total += countPoints(n.Children)
	}
	return total
}

func TestInsertDimMismatchPanics(t *testing.T) {
	tr := NewDynamic(NewGeometry(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Insert([]float64{1})
}

func TestDynamicKNNMatchesBruteForce(t *testing.T) {
	g := Geometry{Dim: 6, PageBytes: 1024, Utilization: 1}
	rng := rand.New(rand.NewSource(43))
	spec := dataset.Spec{Name: "c", N: 3000, Dim: 6, Clusters: 6, VarianceDecay: 0.9, ClusterStd: 0.1}
	pts := spec.Generate(rng).Points
	tr := dynamicWith(pts, g)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// The dynamic tree shares the Tree type, so the query engine works
	// unchanged; compare its leaf structure against containment.
	for _, l := range tr.Leaves() {
		for _, p := range l.Points {
			if !l.Rect.Contains(p) {
				t.Fatal("leaf MBR misses point")
			}
		}
	}
}

func TestDynamicVsBulkUtilization(t *testing.T) {
	// The reason the dynamic tree exists in this reproduction: its
	// storage utilization is well below the bulk loader's.
	g := Geometry{Dim: 8, PageBytes: 2048, Utilization: 1}
	pts := uniformPoints(8000, 8, 44)
	dynamic := dynamicWith(pts, g)

	cp := make([][]float64, len(pts))
	copy(cp, pts)
	bulk := Build(cp, ParamsForGeometry(Geometry{Dim: 8, PageBytes: 2048, Utilization: 0.95}))

	if dynamic.NumLeaves() <= bulk.NumLeaves() {
		t.Errorf("dynamic leaves %d should exceed bulk leaves %d (lower utilization)",
			dynamic.NumLeaves(), bulk.NumLeaves())
	}
}

func TestInsertDuplicatePoints(t *testing.T) {
	g := Geometry{Dim: 2, PageBytes: 256, Utilization: 1}
	tr := NewDynamic(g)
	for i := 0; i < 500; i++ {
		tr.Insert([]float64{1, 2})
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumPoints != 500 {
		t.Errorf("points = %d", tr.NumPoints)
	}
}

// Property: random insertion orders always yield valid trees storing
// every point, with bounded occupancy.
func TestInsertInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(1500)
		dim := 1 + r.Intn(6)
		pageBytes := 256 << r.Intn(3)
		g := Geometry{Dim: dim, PageBytes: pageBytes, Utilization: 1}
		pts := dataset.GenerateUniform("u", n, dim, r).Points
		tr := dynamicWith(pts, g)
		if err := tr.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		maxLeaf := g.MaxDataCapacity()
		for _, l := range tr.Leaves() {
			if len(l.Points) > maxLeaf {
				return false
			}
		}
		return tr.NumPoints == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSplitEntriesBalance(t *testing.T) {
	// Split of 10 entries with min 4 keeps both sides within [4, 6].
	pts := uniformPoints(10, 2, 45)
	n := &Node{Level: 1, Points: pts, Rect: mbr.Bound(pts)}
	tr := NewDynamic(Geometry{Dim: 2, PageBytes: 8192, Utilization: 1})
	tr.minLeaf = 4
	sib := tr.split(n)
	if len(n.Points) < 4 || len(sib.Points) < 4 {
		t.Errorf("split sizes %d/%d violate minimum fill", len(n.Points), len(sib.Points))
	}
	if len(n.Points)+len(sib.Points) != 10 {
		t.Error("split lost points")
	}
}

// texture60Points returns the TEXTURE60 stand-in at the given
// cardinality scale, generated as the serving benchmark generates it
// (seed 1).
func texture60Points(scale float64) [][]float64 {
	return dataset.Texture60.Scaled(scale).Generate(rand.New(rand.NewSource(1))).Points
}

// deepGeometry and deepPoints make a 4-d tree of height 6: 256-byte
// pages hold 16 points or 7 directory entries, so directory splits
// and forced reinsertion happen at every level.
var deepGeometry = Geometry{Dim: 4, PageBytes: 256, Utilization: 1}

func deepPoints() [][]float64 {
	spec := dataset.Spec{Name: "c4", N: 20000, Dim: 4, Clusters: 8, VarianceDecay: 0.9, ClusterStd: 0.05}
	return spec.Generate(rand.New(rand.NewSource(2))).Points
}

// hugePoints returns n uniform points whose coordinates span
// ±1.7e308, so a box's side can exceed math.MaxFloat64: widths and
// margins overflow to +Inf and ChooseSubtree's enlargements turn NaN.
func hugePoints(n, dim int, seed int64) [][]float64 {
	pts := uniformPoints(n, dim, seed)
	for _, p := range pts {
		for i := range p {
			p[i] = (2*p[i] - 1) * 1.7e308
		}
	}
	return pts
}

// digestFlat feeds a flattened tree's shape and contents into h: the
// height, the leaf count, the four index arrays, and the bits of every
// rectangle corner and point coordinate, in order.
func digestFlat(h hash.Hash, ft *FlatTree) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(ft.Height))
	put(uint64(ft.NumLeaves))
	for _, a := range [][]int32{ft.ChildStart, ft.ChildCount, ft.PtStart, ft.PtCount} {
		for _, v := range a {
			put(uint64(v))
		}
	}
	lo, hi := ft.Rects.Corners()
	for _, a := range [][]float64{lo, hi, ft.Points.Data} {
		for _, v := range a {
			put(math.Float64bits(v))
		}
	}
}

// TestDynamicInsertGolden pins the exact shape of R*-grown trees: any
// change to ChooseSubtree, the split, or forced reinsertion that moves
// a single point or rectangle bit changes the digest. The shards are
// dealt round-robin, as the server deals its initial points. The
// texture60 × 0.02 cases are the trees the serving benchmark's knn-read
// (S = 1) and knn-sharded (S = 8) workloads grow; clustered4/8KB puts
// 52 leaves under one parent, past the 32 children R* prices overlap
// for.
func TestDynamicInsertGolden(t *testing.T) {
	texture := texture60Points(0.005)
	served := texture60Points(0.02)
	deep := deepPoints()
	huge := hugePoints(3000, 8, 46)
	cases := []struct {
		name   string
		pts    [][]float64
		g      Geometry
		shards int
		height int
		want   string
	}{
		{"texture60/s1", texture, NewGeometry(60), 1, 3, "beaa67e1f992422571d327e11e945849fc8084e6fa7ae2f6338865bc5d6ca418"},
		{"texture60/s4", texture, NewGeometry(60), 4, 2, "559afe62b6778a1bd5271e570b7c4e8d6b2d77a5bea6a8a6e29fdaab50035f8f"},
		{"clustered4/s1", deep, deepGeometry, 1, 6, "bbcf1514d690ca2d464e702725b34c32ca13a36599a1131732f7f66c32604fab"},
		{"texture60x0.02/s1", served, NewGeometry(60), 1, 4, "1b6e637408cd4e77ad2181e5330dc351874b8e4bfddc91b5632dbc57737876f7"},
		{"texture60x0.02/s8", served, NewGeometry(60), 8, 3, "4cc422c63a682a76a255056e8105b13683d6c5ac98d514308cb5b8d826f1dca2"},
		{"clustered4/8KB", deep, NewGeometry(4), 1, 2, "bed95b85f04df5786b97d6a80f80fbc40b78b14beeabc73819b4af10f51bc3f2"},
		{"huge8/8KB", huge, NewGeometry(8), 1, 2, "84b94f205e35473101f9478f6a71fedb54e8f1be1d67961d99442c58ec79ebe1"},
		{"huge8/512B", huge, Geometry{Dim: 8, PageBytes: 512, Utilization: 1}, 1, 5, "6dfa4cb1c023b3cd249d639e612e2f7115bfd021aefb7ecb2e0431f61250144b"},
	}
	for _, c := range cases {
		trees := make([]*DynamicTree, c.shards)
		for i := range trees {
			trees[i] = NewDynamic(c.g)
		}
		for i, p := range c.pts {
			trees[i%c.shards].Insert(p)
		}
		h := sha256.New()
		for _, tr := range trees {
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			digestFlat(h, tr.Flatten())
		}
		if trees[0].Height() != c.height {
			t.Errorf("%s: height %d, want %d", c.name, trees[0].Height(), c.height)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// refChooseSubtree is the exhaustive R* ChooseSubtree that
// chooseSubtree must agree with: every child's overlap enlargement is
// summed in full, in child order, and the first child of least
// (overlap, enlargement, margin) in child order wins.
func refChooseSubtree(n *Node, p []float64, subtree *Node) *Node {
	k := len(n.Children)
	atLeafParent := n.Level == 2 && subtree == nil
	overlaps := make([]float64, k*k)
	if atLeafParent {
		for i, c := range n.Children {
			for j := i + 1; j < k; j++ {
				ov := overlapMargin(c.Rect, n.Children[j].Rect)
				overlaps[i*k+j], overlaps[j*k+i] = ov, ov
			}
		}
	}
	best := -1
	bestOverlap, bestEnlarge, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
	for i, c := range n.Children {
		enlarged := c.Rect.Clone()
		if subtree == nil {
			enlarged.Extend(p)
		} else {
			enlarged.ExtendRect(subtree.Rect)
		}
		area := c.Rect.Margin()
		enlarge := enlarged.Margin() - area
		overlap := 0.0
		if atLeafParent {
			for j, o := range n.Children {
				if j == i {
					continue
				}
				overlap += overlapMargin(enlarged, o.Rect) - overlaps[i*k+j]
			}
		}
		if best < 0 || less3(overlap, enlarge, area, bestOverlap, bestEnlarge, bestArea) {
			best, bestOverlap, bestEnlarge, bestArea = i, overlap, enlarge, area
		}
	}
	return n.Children[best]
}

// refSplitEntries is the box-sweep R* split that splitEntries must
// agree with: along every axis it bounds both groups of every cut with
// boxes swept over the sorted entries and sums the boxes' margins.
func refSplitEntries(boxes []mbr.Rect, minFill, dim int) (order []int, cut int) {
	count := len(boxes)
	pre, suf := make([]mbr.Rect, count), make([]mbr.Rect, count)
	sweep := func(order []int) {
		pre[0] = boxes[order[0]].Clone()
		for k := 1; k < count-minFill; k++ {
			pre[k] = mbr.Union(pre[k-1], boxes[order[k]])
		}
		suf[count-1] = boxes[order[count-1]].Clone()
		for k := count - 2; k >= minFill; k-- {
			suf[k] = mbr.Union(suf[k+1], boxes[order[k]])
		}
	}
	order, best := make([]int, count), make([]int, count)
	var bestAxisMargin float64
	for d := 0; d < dim; d++ {
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return boxes[order[a]].Lo[d] < boxes[order[b]].Lo[d]
		})
		sweep(order)
		var marginSum float64
		for cut := minFill; cut <= count-minFill; cut++ {
			marginSum += pre[cut-1].Margin() + suf[cut].Margin()
		}
		if d == 0 || marginSum < bestAxisMargin {
			bestAxisMargin = marginSum
			copy(best, order)
		}
	}
	sweep(best)
	bestCut, bestOverlap, bestMargin := -1, 0.0, 0.0
	for cut := minFill; cut <= count-minFill; cut++ {
		l, r := pre[cut-1], suf[cut]
		ov := overlapMargin(l, r)
		mg := l.Margin() + r.Margin()
		if bestCut < 0 || ov < bestOverlap || (ov == bestOverlap && mg < bestMargin) {
			bestCut, bestOverlap, bestMargin = cut, ov, mg
		}
	}
	return best, bestCut
}

// oracleCoords are the coordinate distributions of the oracle tests:
//   - uniform in [0, 1);
//   - a grid of five values with ±0: coincident corners, zero widths,
//     and tied enlargements, margins and overlaps;
//   - magnitudes from 1 to 2^62, so a margin's bits depend on the order
//     its widths are added in;
//   - values near ±math.MaxFloat64, where widths overflow to +Inf and
//     enlargements turn NaN;
//   - a grid with ±Inf corners.
var oracleCoords = []func(r *rand.Rand) float64{
	func(r *rand.Rand) float64 { return r.Float64() },
	func(r *rand.Rand) float64 { return []float64{math.Copysign(0, -1), 0, 0.5, 1, 1.5}[r.Intn(5)] },
	func(r *rand.Rand) float64 { return float64(r.Intn(4)) * math.Ldexp(1, r.Intn(61)) },
	func(r *rand.Rand) float64 {
		if r.Intn(2) == 0 {
			return (2*r.Float64() - 1) * 1.7e308
		}
		return []float64{-math.MaxFloat64, -1.7e308, -1e308, math.Copysign(0, -1), 0, 1e308, 1.7e308, math.MaxFloat64}[r.Intn(8)]
	},
	func(r *rand.Rand) float64 {
		return []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.Inf(1)}[r.Intn(6)]
	},
}

// oracleBox returns a box of coordinates drawn by coord. Each side is
// zero-width with probability 1/4, and every side when point is set.
func oracleBox(r *rand.Rand, dim int, coord func(*rand.Rand) float64, point bool) mbr.Rect {
	lo, hi := make([]float64, dim), make([]float64, dim)
	for d := range lo {
		lo[d] = coord(r)
		hi[d] = lo[d]
		if !point && r.Intn(4) != 0 {
			hi[d] = coord(r)
		}
		if hi[d] < lo[d] {
			lo[d], hi[d] = hi[d], lo[d]
		}
	}
	return mbr.Rect{Lo: lo, Hi: hi}
}

// oracleBoxes returns count boxes; a quarter of them repeat an earlier
// box's coordinates.
func oracleBoxes(r *rand.Rand, count, dim int, coord func(*rand.Rand) float64, points bool) []mbr.Rect {
	boxes := make([]mbr.Rect, count)
	for i := range boxes {
		if i > 0 && r.Intn(4) == 0 {
			boxes[i] = boxes[r.Intn(i)].Clone()
		} else {
			boxes[i] = oracleBox(r, dim, coord, points)
		}
	}
	return boxes
}

// oracleFanout draws a node's entry count: mostly up to 80, one draw
// in 32 at the full maxCount.
func oracleFanout(r *rand.Rand, maxCount int) int {
	if r.Intn(32) == 0 {
		return maxCount
	}
	return 2 + r.Intn(min(maxCount, 80)-1)
}

// oracleDim draws a width from 1 to 64, half the time from 1 to 4,
// where grid coordinates tie most often.
func oracleDim(r *rand.Rand) int {
	if r.Intn(2) == 0 {
		return 1 + r.Intn(4)
	}
	return 1 + r.Intn(64)
}

// TestChooseSubtreeMatchesExhaustive checks that chooseSubtree picks
// the child the exhaustive loop picks, on random nodes: d from 1 to
// 64; fanouts up to a 64 KB directory page's (capped at 1,024 children
// for d < 4, which bounds the pairwise scratch at 8 MB); points
// descending to the leaves' parent, points passing a higher level, and
// subtrees being reinserted. In a quarter of the nodes one child spans
// ±math.MaxFloat64 in one dimension, so its margin overflows and the
// other children, of any coordinates, are chosen among in child order.
// One tree per d chooses for every node, so its scratch is reused
// across nodes of different fanouts.
func TestChooseSubtreeMatchesExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	trees := make(map[int]*DynamicTree)
	for it := 0; it < 1500; it++ {
		dim := oracleDim(r)
		tr := trees[dim]
		if tr == nil {
			tr = NewDynamicCustom(dim, 2, 4)
			trees[dim] = tr
		}
		kind := r.Intn(len(oracleCoords))
		coord := oracleCoords[kind]
		maxFanout := min(Geometry{Dim: dim, PageBytes: 64 << 10}.MaxDirCapacity(), 1024)
		boxes := oracleBoxes(r, oracleFanout(r, maxFanout), dim, coord, false)
		if r.Intn(4) == 0 {
			wide := boxes[r.Intn(len(boxes))]
			d := r.Intn(dim)
			wide.Lo[d], wide.Hi[d] = -math.MaxFloat64, math.MaxFloat64
		}
		n := &Node{Level: 2}
		for _, b := range boxes {
			n.Children = append(n.Children, &Node{Level: 1, Rect: b})
		}
		p := oracleBox(r, dim, coord, true).Lo
		if r.Intn(4) == 0 {
			p = append([]float64(nil), boxes[r.Intn(len(boxes))].Hi...)
		}
		var subtree *Node
		switch r.Intn(6) {
		case 0:
			n.Level = 3
		case 1:
			n.Level = 3
			subtree = &Node{Level: 1, Rect: oracleBox(r, dim, coord, false)}
		}
		got, want := tr.chooseSubtree(n, p, subtree), refChooseSubtree(n, p, subtree)
		if got != want {
			t.Fatalf("case %d (d=%d, %d children, level %d, subtree %t, coordinates %d): chose child %d, exhaustive loop chose %d",
				it, dim, len(n.Children), n.Level, subtree != nil, kind, indexOf(n.Children, got), indexOf(n.Children, want))
		}
	}
}

func indexOf(nodes []*Node, n *Node) int {
	for i, c := range nodes {
		if c == n {
			return i
		}
	}
	return -1
}

// TestSplitEntriesMatchesBoxSweep checks that splitEntries returns the
// order and cut of the box-sweep split on random overflowing pages: d
// from 1 to 64, entry counts up to a 64 KB page's plus one, points and
// rectangles, and minimum fills of 1 (the three-point mini-leaves a
// sampled dynamic index grows), 2 and R*'s 40%. It also checks, along
// a random order, that every group margin the split compares has the
// bits of the swept box's Rect.Margin (or is NaN where that is). One
// splitter per d, as in a tree, splits every page of that width, so
// its scratch is reused across entry counts.
func TestSplitEntriesMatchesBoxSweep(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	splitters := make(map[int]*splitter)
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }
	for it := 0; it < 1500; it++ {
		dim := oracleDim(r)
		s := splitters[dim]
		if s == nil {
			s = new(splitter)
			splitters[dim] = s
		}
		kind := r.Intn(len(oracleCoords))
		points := r.Intn(2) == 0
		g := Geometry{Dim: dim, PageBytes: 64 << 10}
		maxCap := g.MaxDirCapacity()
		if points {
			maxCap = g.MaxDataCapacity()
		}
		count := oracleFanout(r, maxCap) + 1
		if r.Intn(8) == 0 {
			count = 3
		}
		minFill := []int{1, 2, int(minFillFraction * float64(count-1))}[r.Intn(3)]
		minFill = max(1, min(minFill, count/2))
		boxes := oracleBoxes(r, count, dim, oracleCoords[kind], points)
		s.boxes = boxes
		order, cut := s.splitEntries(minFill, dim)
		order = append([]int(nil), order...)
		wantOrder, wantCut := refSplitEntries(boxes, minFill, dim)
		if cut != wantCut || !slices.Equal(order, wantOrder) {
			t.Fatalf("case %d (d=%d, %d entries, points %t, minFill %d, coordinates %d): order %v cut %d, box sweep: order %v cut %d",
				it, dim, count, points, minFill, kind, order, cut, wantOrder, wantCut)
		}

		copy(s.order, r.Perm(count))
		s.margins(minFill, dim)
		s.sweep(s.order, minFill)
		for c := minFill; c <= count-minFill; c++ {
			if pre, want := s.preMargin[c-1], s.pre[c-1].Margin(); !sameBits(pre, want) {
				t.Fatalf("case %d (d=%d, %d entries, coordinates %d): margin of the first %d entries %v, box %v", it, dim, count, kind, c, pre, want)
			}
			if suf, want := s.sufMargin[c], s.suf[c].Margin(); !sameBits(suf, want) {
				t.Fatalf("case %d (d=%d, %d entries, coordinates %d): margin of the entries from %d %v, box %v", it, dim, count, kind, c, suf, want)
			}
		}
	}
}

// growStats grows a dynamic tree from pts and returns the mean heap
// allocations and bytes per insert.
func growStats(g Geometry, pts [][]float64) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := NewDynamic(g)
	for _, p := range pts {
		tr.Insert(p)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(pts))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestDynamicInsertAllocs is the garbage guard of R* insertion: the
// split's axis sorts and margin passes and ChooseSubtree run in scratch
// the tree owns, so what an insert allocates is the tree's own growth
// (nodes, entry slices, rectangles): 1.2 allocations per insert here.
func TestDynamicInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	allocs, bytes := growStats(NewGeometry(60), texture60Points(0.005))
	if allocs > 2 || bytes > 4096 {
		t.Errorf("R* insert: %.1f allocs and %.0f B per insert, want <= 2 and <= 4096", allocs, bytes)
	}
}

// BenchmarkDynamicInsert grows R*-trees by insertion: d60 is the
// TEXTURE60 × 0.02 tree the serving benchmark's knn-read workload sets
// up, d4 the golden test's height-6 tree, d4-8KB the same points at
// 8 KB pages (52 leaves under one parent, where ChooseSubtree's
// pairwise overlaps dominate), and d617 uniform points of ISOLET617's
// width at 8 KB pages (two points per leaf and four entries per
// directory page, so nearly every insert splits and the split's
// per-axis margin pass dominates; sized so a race-detector smoke run
// stays short). One op grows the whole tree; ns/insert and
// allocs/insert divide by the points inserted. scripts/bench.sh
// records the best of each in BENCH_build.json.
func BenchmarkDynamicInsert(b *testing.B) {
	for _, c := range []struct {
		name string
		pts  [][]float64
		g    Geometry
	}{
		{"d60", texture60Points(0.02), NewGeometry(60)},
		{"d4", deepPoints(), deepGeometry},
		{"d4-8KB", deepPoints(), NewGeometry(4)},
		{"d617", uniformPoints(50, 617, 617), NewGeometry(617)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := NewDynamic(c.g)
				for _, p := range c.pts {
					tr.Insert(p)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			inserts := float64(b.N * len(c.pts))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/inserts, "ns/insert")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/inserts, "allocs/insert")
		})
	}
}
