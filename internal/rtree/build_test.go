package rtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hdidx/internal/dataset"
)

func uniformPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	return dataset.GenerateUniform("u", n, dim, rng).Points
}

func TestBuildSingleLeaf(t *testing.T) {
	pts := uniformPoints(5, 2, 1)
	tr := Build(pts, BuildParams{LeafCap: 10, DirCap: 4})
	if tr.Height() != 1 || tr.NumLeaves() != 1 {
		t.Fatalf("height=%d leaves=%d, want 1/1", tr.Height(), tr.NumLeaves())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTwoLevels(t *testing.T) {
	pts := uniformPoints(100, 2, 2)
	tr := Build(pts, BuildParams{LeafCap: 10, DirCap: 16})
	if tr.Height() != 2 {
		t.Fatalf("height = %d, want 2", tr.Height())
	}
	if got := tr.NumLeaves(); got != 10 {
		t.Errorf("leaves = %d, want 10", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildMatchesTopology(t *testing.T) {
	// The builder must realize the node counts the topology predicts.
	g := NewGeometry(8)
	n := 20000
	topo := NewTopology(n, g)
	pts := uniformPoints(n, 8, 3)
	tr := Build(pts, ParamsForGeometry(g))
	if tr.Height() != topo.Height {
		t.Errorf("height = %d, topology says %d", tr.Height(), topo.Height)
	}
	if got, want := tr.NumLeaves(), topo.Leaves(); got != want {
		t.Errorf("leaves = %d, topology says %d", got, want)
	}
}

func TestBuildLeafOccupancyBounds(t *testing.T) {
	pts := uniformPoints(1000, 4, 4)
	params := BuildParams{LeafCap: 32, DirCap: 15}
	tr := Build(pts, params)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, l := range tr.Leaves() {
		if len(l.Points) > int(math.Ceil(params.LeafCap)) {
			t.Errorf("leaf holds %d points, cap %v", len(l.Points), params.LeafCap)
		}
		if len(l.Points) == 0 {
			t.Error("empty leaf")
		}
	}
}

func TestBuildFanoutBounds(t *testing.T) {
	pts := uniformPoints(5000, 4, 5)
	params := BuildParams{LeafCap: 20, DirCap: 10}
	tr := Build(pts, params)
	var check func(n *Node)
	check = func(n *Node) {
		if len(n.Children) > int(math.Ceil(params.DirCap)) {
			t.Errorf("fanout %d exceeds dir cap %v", len(n.Children), params.DirCap)
		}
		for _, c := range n.Children {
			check(c)
		}
	}
	check(tr.Root)
}

func TestBuildForcedHeight(t *testing.T) {
	// Mini-index builds force the full index height even on few points.
	pts := uniformPoints(50, 4, 6)
	tr := Build(pts, BuildParams{LeafCap: 3.2, DirCap: 15, Height: 3})
	if tr.Height() != 3 {
		t.Errorf("forced height = %d, want 3", tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildFractionalLeafCap(t *testing.T) {
	// Sampling scales capacities fractionally; leaves of a zeta=0.1
	// mini-index hold ~3.2 points.
	pts := uniformPoints(320, 4, 7)
	tr := Build(pts, BuildParams{LeafCap: 3.2, DirCap: 15})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.NumLeaves(); got < 90 || got > 110 {
		t.Errorf("leaves = %d, want ~100", got)
	}
}

func TestBuildScaledParamsPreserveStructure(t *testing.T) {
	// A mini-index on a 25% sample with scaled capacity should have
	// roughly the full index's leaf count and exactly its height.
	rng := rand.New(rand.NewSource(8))
	full := dataset.GenerateUniform("u", 8000, 4, rng).Points
	params := BuildParams{LeafCap: 32, DirCap: 15}
	fullTree := Build(full, params)

	sample := dataset.SampleExact(full, 2000, rng)
	mini := Build(sample, params.Scaled(0.25, fullTree.Height()))
	if mini.Height() != fullTree.Height() {
		t.Errorf("mini height = %d, full height = %d", mini.Height(), fullTree.Height())
	}
	ratio := float64(mini.NumLeaves()) / float64(fullTree.NumLeaves())
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("mini leaves = %d, full leaves = %d (ratio %v)", mini.NumLeaves(), fullTree.NumLeaves(), ratio)
	}
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(nil, BuildParams{LeafCap: 10, DirCap: 4})
}

func TestBuildPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(uniformPoints(10, 2, 9), BuildParams{LeafCap: 0, DirCap: 4})
}

func TestBuildDuplicatePoints(t *testing.T) {
	// All-identical points: every split degenerates but the tree must
	// still be valid.
	pts := make([][]float64, 100)
	for i := range pts {
		pts[i] = []float64{1, 2, 3}
	}
	tr := Build(pts, BuildParams{LeafCap: 10, DirCap: 4})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumPoints != 100 {
		t.Errorf("NumPoints = %d", tr.NumPoints)
	}
}

func TestChooseCut(t *testing.T) {
	tests := []struct {
		n, k    int
		subcap  float64
		wantKl  int
		wantCut int
	}{
		{100, 10, 10, 5, 50},
		{95, 10, 10, 5, 50}, // left packs full
		{11, 2, 10, 1, 10},  // right gets remainder
		{4, 4, 1, 2, 2},     // minimal groups
		{2, 2, 32, 1, 1},    // every subtree needs one point
	}
	for _, tt := range tests {
		kl, cut := chooseCut(tt.n, tt.k, tt.subcap)
		if kl != tt.wantKl || cut != tt.wantCut {
			t.Errorf("chooseCut(%d, %d, %v) = (%d, %d), want (%d, %d)",
				tt.n, tt.k, tt.subcap, kl, cut, tt.wantKl, tt.wantCut)
		}
	}
}

// Property: on random inputs the built tree always validates, stores
// every point, and respects occupancy bounds.
func TestBuildInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(2000)
		dim := 1 + r.Intn(8)
		leafCap := 2 + r.Float64()*30
		dirCap := 2 + float64(r.Intn(14))
		pts := dataset.GenerateUniform("u", n, dim, r).Points
		tr := Build(pts, BuildParams{LeafCap: leafCap, DirCap: dirCap})
		if err := tr.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return tr.NumPoints == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: point *sets* are preserved — every input point appears in
// exactly one leaf.
func TestBuildPreservesPointsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{float64(i), r.Float64()}
		}
		tr := Build(pts, BuildParams{LeafCap: 8, DirCap: 5})
		seen := make(map[float64]int)
		for _, l := range tr.Leaves() {
			for _, p := range l.Points {
				seen[p[0]]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeriveHeight(t *testing.T) {
	p := BuildParams{LeafCap: 10, DirCap: 10}
	tests := []struct{ n, want int }{
		{1, 1}, {10, 1}, {11, 2}, {100, 2}, {101, 3}, {1000, 3}, {1001, 4},
	}
	for _, tt := range tests {
		if got := p.DeriveHeight(tt.n); got != tt.want {
			t.Errorf("DeriveHeight(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestVAMSplitSeparatesClusters(t *testing.T) {
	// Two well-separated clusters on the x axis: with two leaves, the
	// max-variance split must separate them (no leaf spans both).
	rng := rand.New(rand.NewSource(10))
	pts := make([][]float64, 40)
	for i := range pts {
		base := 0.0
		if i >= 20 {
			base = 100.0
		}
		pts[i] = []float64{base + rng.Float64(), rng.Float64()}
	}
	tr := Build(pts, BuildParams{LeafCap: 20, DirCap: 4})
	if tr.NumLeaves() != 2 {
		t.Fatalf("leaves = %d, want 2", tr.NumLeaves())
	}
	for _, l := range tr.Leaves() {
		if l.Rect.Side(0) > 50 {
			t.Errorf("leaf spans both clusters: %v", l.Rect)
		}
	}
}

func BenchmarkBuild10k60d(b *testing.B) {
	pts := uniformPoints(10000, 60, 1)
	params := ParamsForGeometry(NewGeometry(60))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts, params)
	}
}
