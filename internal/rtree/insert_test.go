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
// dealt round-robin, as the server deals its initial points.
func TestDynamicInsertGolden(t *testing.T) {
	texture := texture60Points(0.005)
	deep := deepPoints()
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
// split sweeps and ChooseSubtree run in scratch the tree owns, so what
// an insert allocates is the tree's own growth (nodes, entry slices,
// rectangles).
func TestDynamicInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	allocs, bytes := growStats(NewGeometry(60), texture60Points(0.005))
	if allocs > 12 || bytes > 4096 {
		t.Errorf("R* insert: %.1f allocs and %.0f B per insert, want <= 12 and <= 4096", allocs, bytes)
	}
}

// BenchmarkDynamicInsert grows R*-trees by insertion: d60 is the
// TEXTURE60 × 0.02 tree the serving benchmark's knn-read workload sets
// up, d4 the golden test's height-6 tree. One op grows the whole tree;
// ns/insert and allocs/insert divide by the points inserted.
// scripts/bench.sh records the best of each in BENCH_build.json.
func BenchmarkDynamicInsert(b *testing.B) {
	for _, c := range []struct {
		name string
		pts  [][]float64
		g    Geometry
	}{
		{"d60", texture60Points(0.02), NewGeometry(60)},
		{"d4", deepPoints(), deepGeometry},
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
