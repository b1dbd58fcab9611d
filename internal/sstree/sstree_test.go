// Package sstree holds the SS-tree's tests. The SS-tree (White & Jain,
// ICDE 1996) is balltree.Build with kind balltree.SS: the VAMSplit
// partition of rtree.Build, each page bounded by a ball around its
// centroid.
package sstree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hdidx/internal/balltree"
	"hdidx/internal/dataset"
	"hdidx/internal/query"
	"hdidx/internal/stats"
)

func uniformPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	return dataset.GenerateUniform("u", n, dim, rng).Points
}

func clusteredPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	spec := dataset.Spec{Name: "c", N: n, Dim: dim, Clusters: 10, VarianceDecay: 0.9, ClusterStd: 0.1}
	return spec.Generate(rng).Points
}

func build(pts [][]float64, p balltree.BuildParams) *balltree.Tree {
	return balltree.Build(balltree.SS, pts, p, 0)
}

func TestBuildValidates(t *testing.T) {
	pts := uniformPoints(3000, 8, 1)
	tr := build(pts, balltree.BuildParams{LeafCap: 32, DirCap: 15})
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
}

func TestBuildSingleLeaf(t *testing.T) {
	pts := uniformPoints(5, 3, 2)
	tr := build(pts, balltree.BuildParams{LeafCap: 10, DirCap: 4})
	if tr.Root.Level != 1 || len(tr.Leaves()) != 1 || tr.Root.Children != nil {
		t.Fatalf("height=%d leaves=%d", tr.Root.Level, len(tr.Leaves()))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	build(nil, balltree.BuildParams{LeafCap: 10, DirCap: 4})
}

// unitBall returns a one-leaf SS-tree whose page is the unit ball
// around the origin.
func unitBall() *balltree.Tree {
	return build([][]float64{{-1, 0}, {1, 0}}, balltree.BuildParams{LeafCap: 10, DirCap: 4})
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

func TestKNNMatchesBruteForce(t *testing.T) {
	data := clusteredPoints(2000, 8, 3)
	tr := build(data, balltree.BuildParams{LeafCap: 32, DirCap: 15})
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		q := data[rng.Intn(len(data))]
		for _, k := range []int{1, 5, 21} {
			want := query.KNNBruteRadius(data, q, k)
			got := balltree.KNNSearch(tr, q, k)
			if math.Abs(got.Radius-want) > 1e-9 {
				t.Fatalf("k=%d: radius %v, want %v", k, got.Radius, want)
			}
			if got.LeafAccesses < 1 || got.DirAccesses < 1 {
				t.Fatalf("%d leaf and %d directory accesses", got.LeafAccesses, got.DirAccesses)
			}
		}
	}
}

func TestKNNPanicsOnBadK(t *testing.T) {
	tr := build(uniformPoints(10, 2, 5), balltree.BuildParams{LeafCap: 4, DirCap: 4})
	for _, k := range []int{0, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			balltree.KNNSearch(tr, []float64{0, 0}, k)
		}()
	}
}

// Property: the SS-tree k-NN radius equals brute force for random
// data, parameters, and k.
func TestKNNProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(500)
		dim := 1 + r.Intn(8)
		data := dataset.GenerateUniform("u", n, dim, r).Points
		tr := build(data, balltree.BuildParams{
			LeafCap: 2 + r.Float64()*30,
			DirCap:  2 + float64(r.Intn(14)),
		})
		if err := tr.Validate(); err != nil {
			return false
		}
		k := 1 + r.Intn(10)
		q := make([]float64, dim)
		for i := range q {
			q[i] = r.Float64()
		}
		want := query.KNNBruteRadius(data, q, k)
		return math.Abs(balltree.KNNSearch(tr, q, k).Radius-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPredictAccuracyClustered(t *testing.T) {
	data := clusteredPoints(15000, 16, 7)
	g := balltree.NewGeometry(16)
	rng := rand.New(rand.NewSource(8))
	queryPoints := make([][]float64, 60)
	for i := range queryPoints {
		queryPoints[i] = data[rng.Intn(len(data))]
	}
	spheres := query.ComputeSpheres(data, queryPoints, 21)

	cp := make([][]float64, len(data))
	copy(cp, data)
	tree := build(cp, g.Params(balltree.SS))
	measured := stats.Mean(balltree.MeasureLeafAccesses(tree, spheres))

	p, err := balltree.Predict(balltree.SS, data, 0.2, true, g, spheres, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	re := stats.RelativeError(p.Mean, measured)
	if math.Abs(re) > 0.25 {
		t.Errorf("SS-tree prediction error %+.2f (pred %.1f, meas %.1f)", re, p.Mean, measured)
	}
}

func TestPredictRejectsBadFraction(t *testing.T) {
	data := uniformPoints(100, 4, 12)
	g := balltree.NewGeometry(4)
	for _, z := range []float64{0, -1, 1.5, 1e-6} {
		if _, err := balltree.Predict(balltree.SS, data, z, true, g, nil, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("zeta=%v: expected error", z)
		}
	}
	if _, err := balltree.Predict(balltree.SS, nil, 0.5, true, g, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty dataset: expected error")
	}
}

func TestGeometryCapacities(t *testing.T) {
	g := balltree.NewGeometry(60)
	if g.EffDataCapacity() != 32 {
		t.Errorf("EffDataCapacity = %d, want 32", g.EffDataCapacity())
	}
	// A ball entry holds a center, a radius and a reference; the
	// M-tree's entry is the same.
	if got := g.EffDirCapacity(balltree.SS); got != 31 || g.EffDirCapacity(balltree.M) != got {
		t.Errorf("SS/M directory capacity = %d/%d, want 31", got, g.EffDirCapacity(balltree.M))
	}
}
