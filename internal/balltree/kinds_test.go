package balltree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hdidx/internal/dataset"
	"hdidx/internal/mbr"
	"hdidx/internal/query"
	"hdidx/internal/stats"
)

// The tests all three structures share run as one table per test, a
// row per kind. Each row keeps the sizes, seeds and tolerances of its
// structure; Build ignores the seed for the SS- and SR-tree, so a row
// passes the M-tree's. The tests of one structure's own bounds and
// loader follow the tables.

func uniformPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	return dataset.GenerateUniform("u", n, dim, rng).Points
}

func TestBuildValidates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   Kind
		pts    [][]float64
		dirCap float64
	}{
		{"SS", SS, uniformPoints(3000, 8, 1), 15},
		{"SR", SR, clusteredPoints(3000, 8, 1), 10},
		{"M", M, clusteredPoints(3000, 8, 1), 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := Build(tc.kind, tc.pts, BuildParams{LeafCap: 32, DirCap: tc.dirCap}, 1)
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if tr.NumPoints != 3000 {
				t.Errorf("NumPoints = %d", tr.NumPoints)
			}
			if n := len(tr.Leaves()); n < 80 || n > 110 {
				t.Errorf("leaves = %d, want ~94", n)
			}
			if tr.Root.Level != 3 {
				t.Errorf("height %d, want 3", tr.Root.Level)
			}
		})
	}
}

func TestBuildSingleLeaf(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind Kind
		pts  [][]float64
	}{
		{"SS", SS, uniformPoints(5, 3, 2)},
		{"SR", SR, clusteredPoints(5, 3, 2)},
		{"M", M, clusteredPoints(5, 3, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := Build(tc.kind, tc.pts, BuildParams{LeafCap: 10, DirCap: 4}, 0)
			if tr.Root.Level != 1 || len(tr.Leaves()) != 1 || tr.Root.Children != nil {
				t.Fatalf("height=%d leaves=%d", tr.Root.Level, len(tr.Leaves()))
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind Kind
		p    BuildParams
	}{
		{"SS", SS, BuildParams{LeafCap: 10, DirCap: 4}},
		{"SR", SR, BuildParams{LeafCap: 10, DirCap: 4}},
		{"M", M, BuildParams{LeafCap: 32, DirCap: 15}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			Build(tc.kind, nil, tc.p, 1)
		})
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name                string
		kind                Kind
		dataSeed, querySeed int64
		dirCap              float64
	}{
		{"SS", SS, 3, 4, 15},
		{"SR", SR, 2, 3, 10},
		{"M", M, 3, 4, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := clusteredPoints(2000, 8, tc.dataSeed)
			tr := Build(tc.kind, data, BuildParams{LeafCap: 32, DirCap: tc.dirCap}, 1)
			rng := rand.New(rand.NewSource(tc.querySeed))
			for trial := 0; trial < 20; trial++ {
				q := data[rng.Intn(len(data))]
				for _, k := range []int{1, 5, 21} {
					want := query.KNNBruteRadius(data, q, k)
					got := KNNSearch(tr, q, k)
					if math.Abs(got.Radius-want) > 1e-9 {
						t.Fatalf("k=%d: radius %v, want %v", k, got.Radius, want)
					}
					if got.LeafAccesses < 1 || got.DirAccesses < 1 {
						t.Fatalf("%d leaf and %d directory accesses", got.LeafAccesses, got.DirAccesses)
					}
				}
			}
		})
	}
}

func TestKNNPanicsOnBadK(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind Kind
		pts  [][]float64
	}{
		{"SS", SS, uniformPoints(10, 2, 5)},
		{"SR", SR, clusteredPoints(10, 2, 7)},
		{"M", M, clusteredPoints(10, 2, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := Build(tc.kind, tc.pts, BuildParams{LeafCap: 4, DirCap: 4}, 0)
			for _, k := range []int{0, 11} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("k=%d: expected panic", k)
						}
					}()
					KNNSearch(tr, []float64{0, 0}, k)
				}()
			}
		})
	}
}

// Property: the k-NN radius equals brute force for random data,
// parameters, and k.
func TestKNNProperty(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind Kind
		maxN int // points beyond the first 50
	}{
		{"SS", SS, 500},
		{"SR", SR, 400},
		{"M", M, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				n := 50 + r.Intn(tc.maxN)
				dim := 1 + r.Intn(8)
				data := dataset.GenerateUniform("u", n, dim, r).Points
				tr := Build(tc.kind, data, BuildParams{
					LeafCap: 2 + r.Float64()*30,
					DirCap:  2 + float64(r.Intn(14)),
				}, seed)
				if tr.Validate() != nil {
					return false
				}
				k := 1 + r.Intn(10)
				q := make([]float64, dim)
				for i := range q {
					q[i] = r.Float64()
				}
				want := query.KNNBruteRadius(data, q, k)
				return math.Abs(KNNSearch(tr, q, k).Radius-want) < 1e-9
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestPredictAccuracy(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		kind                          Kind
		dataSeed, querySeed, predSeed int64
		tol                           float64
	}{
		{"SS", SS, 7, 8, 9, 0.25},
		{"SR", SR, 6, 7, 8, 0.30},
		{"M", M, 9, 10, 12, 0.35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := clusteredPoints(15000, 16, tc.dataSeed)
			g := NewGeometry(16)
			rng := rand.New(rand.NewSource(tc.querySeed))
			queryPoints := make([][]float64, 60)
			for i := range queryPoints {
				queryPoints[i] = data[rng.Intn(len(data))]
			}
			spheres := query.ComputeSpheres(data, queryPoints, 21)

			tree := Build(tc.kind, clonePoints(data), g.Params(tc.kind), 11)
			measured := stats.Mean(MeasureLeafAccesses(tree, spheres))

			p, err := Predict(tc.kind, data, 0.2, true, g, spheres, rand.New(rand.NewSource(tc.predSeed)))
			if err != nil {
				t.Fatal(err)
			}
			re := stats.RelativeError(p.Mean, measured)
			if math.Abs(re) > tc.tol {
				t.Errorf("%s-tree prediction error %+.2f (pred %.1f, meas %.1f)", tc.name, re, p.Mean, measured)
			}
		})
	}
}

func TestPredictRejectsBadFraction(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind Kind
		data [][]float64
	}{
		{"SS", SS, uniformPoints(100, 4, 12)},
		{"SR", SR, clusteredPoints(100, 4, 9)},
		{"M", M, clusteredPoints(100, 4, 13)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGeometry(4)
			for _, z := range []float64{0, -1, 1.5, 1e-6} {
				if _, err := Predict(tc.kind, tc.data, z, true, g, nil, rand.New(rand.NewSource(1))); err == nil {
					t.Errorf("zeta=%v: expected error", z)
				}
			}
			if _, err := Predict(tc.kind, nil, 0.5, true, g, nil, rand.New(rand.NewSource(1))); err == nil {
				t.Error("empty dataset: expected error")
			}
		})
	}
}

// unitBall returns a one-leaf SS-tree whose page is the unit ball
// around the origin.
func unitBall() *Tree {
	return Build(SS, [][]float64{{-1, 0}, {1, 0}}, BuildParams{LeafCap: 10, DirCap: 4}, 0)
}

func TestMinDist(t *testing.T) {
	tr := unitBall()
	if got := tr.MinDist(tr.Root, []float64{0.5, 0}); got != 0 {
		t.Errorf("inside MinDist = %v", got)
	}
	if got := tr.MinDist(tr.Root, []float64{3, 0}); math.Abs(got-2) > 1e-12 {
		t.Errorf("outside MinDist = %v, want 2", got)
	}
}

func TestIntersectsSphere(t *testing.T) {
	tr := unitBall()
	if !tr.Intersects(tr.Root, []float64{2, 0}, 1) {
		t.Error("tangent spheres should intersect")
	}
	if tr.Intersects(tr.Root, []float64{2.5, 0}, 1) {
		t.Error("disjoint spheres should not intersect")
	}
}

func TestGeometryCapacities(t *testing.T) {
	g := NewGeometry(60)
	if g.EffDataCapacity() != 32 {
		t.Errorf("EffDataCapacity = %d, want 32", g.EffDataCapacity())
	}
	// A ball entry holds a center, a radius and a reference; the
	// M-tree's entry is the same.
	if got := g.EffDirCapacity(SS); got != 31 || g.EffDirCapacity(M) != got {
		t.Errorf("SS/M directory capacity = %d/%d, want 31", got, g.EffDirCapacity(M))
	}
}

func TestMinDistIsMaxOfBounds(t *testing.T) {
	// MinDist reads only the tree's kind and metric, so any SR-tree
	// measures a hand-made page.
	sr := Build(SR, [][]float64{{0, 0}}, BuildParams{LeafCap: 1, DirCap: 2}, 0)
	n := &Node{
		Rect:   mbr.FromCorners([]float64{0, 0}, []float64{1, 1}),
		Center: []float64{0.5, 0.5},
		Radius: 0.3, // tighter than the rectangle near the corners
	}
	// Query outside both: sphere bound dominates near the corner.
	q := []float64{1.5, 1.5}
	rectD := n.Rect.MinDist(q)
	sphereD := math.Hypot(1.0, 1.0) - 0.3
	got := sr.MinDist(n, q)
	if math.Abs(got-math.Max(rectD, sphereD)) > 1e-12 {
		t.Errorf("MinDist = %v, want max(%v, %v)", got, rectD, sphereD)
	}
	if got <= rectD {
		t.Error("sphere bound should dominate here")
	}
	// With a sphere wider than the rectangle, the rectangle bound
	// dominates beside an edge.
	n.Radius = 0.8
	q = []float64{0.5, 1.6}
	if got, want := sr.MinDist(n, q), n.Rect.MinDist(q); math.Abs(got-want) > 1e-12 || want <= 1.1-0.8 {
		t.Errorf("MinDist = %v, want the rectangle's %v", got, want)
	}
}

func TestSRTreePrunesAtLeastAsWellAsSSTree(t *testing.T) {
	// The SR-tree's combined bound dominates the sphere-only bound, so
	// with the same page partitioning it must access no more leaves.
	data := clusteredPoints(10000, 16, 4)
	params := BuildParams{LeafCap: 32, DirCap: 10}
	sr := Build(SR, clonePoints(data), params, 0)
	ss := Build(SS, clonePoints(data), params, 0)

	rng := rand.New(rand.NewSource(5))
	var srAcc, ssAcc int
	for trial := 0; trial < 30; trial++ {
		q := data[rng.Intn(len(data))]
		srAcc += KNNSearch(sr, q, 21).LeafAccesses
		ssAcc += KNNSearch(ss, q, 21).LeafAccesses
	}
	if srAcc > ssAcc {
		t.Errorf("SR-tree accessed %d leaves, SS-tree %d — combined bound should prune at least as well",
			srAcc, ssAcc)
	}
}

func TestGeometryDirEntriesFatter(t *testing.T) {
	// The SR-tree's known trade-off: directory entries carry rect +
	// sphere, so its fanout is below the R-tree's.
	g := NewGeometry(60)
	if got := g.EffDirCapacity(SR); got >= 15 || got < 2 {
		t.Errorf("SR dir capacity = %d, want in [2, 15): below the R*-tree's 15", got)
	}
	if g.EffDataCapacity() != 32 {
		t.Errorf("data capacity = %d, want 32", g.EffDataCapacity())
	}
	if p := g.Params(SR); p.LeafCap != 32 || p.DirCap != float64(g.EffDirCapacity(SR)) {
		t.Errorf("SR params = %+v", p)
	}
}

func TestKNNMatchesBruteForceL1(t *testing.T) {
	// Metric generality: the M-tree needs only a metric, so L1 must
	// work identically.
	data := clusteredPoints(1500, 6, 5)
	tr := BuildM(data, BuildParams{LeafCap: 32, DirCap: 15}, l1, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 15; trial++ {
		q := data[rng.Intn(len(data))]
		// Brute force under L1.
		dists := make([]float64, len(data))
		for i, x := range data {
			dists[i] = l1(x, q)
		}
		k := 1 + rng.Intn(10)
		want := kthSmallest(dists, k)
		got := KNNSearch(tr, q, k)
		if math.Abs(got.Radius-want) > 1e-9 {
			t.Fatalf("L1 k=%d: radius %v, want %v", k, got.Radius, want)
		}
	}
}

func kthSmallest(xs []float64, k int) float64 {
	cp := append([]float64(nil), xs...)
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[min] {
				min = j
			}
		}
		cp[i], cp[min] = cp[min], cp[i]
	}
	return cp[k-1]
}

// TestPartitionRespectsCapacity checks the M-tree pivot partition's
// spill: no leaf holds more than the rounded-up leaf capacity.
func TestPartitionRespectsCapacity(t *testing.T) {
	pts := clusteredPoints(1000, 4, 8)
	tr := Build(M, pts, BuildParams{LeafCap: 32, DirCap: 15}, 1)
	for _, l := range tr.Leaves() {
		if len(l.Points) > 32 {
			t.Errorf("leaf holds %d points", len(l.Points))
		}
	}
}
