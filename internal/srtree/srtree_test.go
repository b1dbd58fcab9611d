// Package srtree holds the SR-tree's tests. The SR-tree (Katayama &
// Satoh, SIGMOD 1997) is balltree.Build with kind balltree.SR: the
// VAMSplit partition of rtree.Build, each page bounded by its
// rectangle and by a ball around its centroid.
package srtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hdidx/internal/balltree"
	"hdidx/internal/dataset"
	"hdidx/internal/mbr"
	"hdidx/internal/query"
	"hdidx/internal/stats"
)

func clusteredPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	spec := dataset.Spec{Name: "c", N: n, Dim: dim, Clusters: 10, VarianceDecay: 0.9, ClusterStd: 0.1}
	return spec.Generate(rng).Points
}

func build(pts [][]float64, p balltree.BuildParams) *balltree.Tree {
	return balltree.Build(balltree.SR, pts, p, 0)
}

func TestBuildValidates(t *testing.T) {
	pts := clusteredPoints(3000, 8, 1)
	tr := build(pts, balltree.BuildParams{LeafCap: 32, DirCap: 10})
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
	pts := clusteredPoints(5, 3, 2)
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

func TestMinDistIsMaxOfBounds(t *testing.T) {
	// MinDist reads only the tree's kind and metric, so any SR-tree
	// measures a hand-made page.
	sr := build([][]float64{{0, 0}}, balltree.BuildParams{LeafCap: 1, DirCap: 2})
	n := &balltree.Node{
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

func TestKNNMatchesBruteForce(t *testing.T) {
	data := clusteredPoints(2000, 8, 2)
	tr := build(data, balltree.BuildParams{LeafCap: 32, DirCap: 10})
	rng := rand.New(rand.NewSource(3))
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
	tr := build(clusteredPoints(10, 2, 7), balltree.BuildParams{LeafCap: 4, DirCap: 4})
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

func TestSRTreePrunesAtLeastAsWellAsSSTree(t *testing.T) {
	// The SR-tree's combined bound dominates the sphere-only bound, so
	// with the same page partitioning it must access no more leaves.
	data := clusteredPoints(10000, 16, 4)
	params := balltree.BuildParams{LeafCap: 32, DirCap: 10}
	cp1 := make([][]float64, len(data))
	copy(cp1, data)
	sr := build(cp1, params)
	cp2 := make([][]float64, len(data))
	copy(cp2, data)
	ss := balltree.Build(balltree.SS, cp2, params, 0)

	rng := rand.New(rand.NewSource(5))
	var srAcc, ssAcc int
	for trial := 0; trial < 30; trial++ {
		q := data[rng.Intn(len(data))]
		srAcc += balltree.KNNSearch(sr, q, 21).LeafAccesses
		ssAcc += balltree.KNNSearch(ss, q, 21).LeafAccesses
	}
	if srAcc > ssAcc {
		t.Errorf("SR-tree accessed %d leaves, SS-tree %d — combined bound should prune at least as well",
			srAcc, ssAcc)
	}
}

func TestKNNProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(400)
		dim := 1 + r.Intn(8)
		data := dataset.GenerateUniform("u", n, dim, r).Points
		tr := build(data, balltree.BuildParams{
			LeafCap: 2 + r.Float64()*30,
			DirCap:  2 + float64(r.Intn(14)),
		})
		if tr.Validate() != nil {
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

func TestPredictAccuracy(t *testing.T) {
	data := clusteredPoints(15000, 16, 6)
	g := balltree.NewGeometry(16)
	rng := rand.New(rand.NewSource(7))
	queryPoints := make([][]float64, 60)
	for i := range queryPoints {
		queryPoints[i] = data[rng.Intn(len(data))]
	}
	spheres := query.ComputeSpheres(data, queryPoints, 21)

	cp := make([][]float64, len(data))
	copy(cp, data)
	tree := build(cp, g.Params(balltree.SR))
	measured := stats.Mean(balltree.MeasureLeafAccesses(tree, spheres))

	p, err := balltree.Predict(balltree.SR, data, 0.2, true, g, spheres, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	re := stats.RelativeError(p.Mean, measured)
	if math.Abs(re) > 0.30 {
		t.Errorf("SR-tree prediction error %+.2f (pred %.1f, meas %.1f)", re, p.Mean, measured)
	}
}

func TestPredictRejectsBadFraction(t *testing.T) {
	data := clusteredPoints(100, 4, 9)
	g := balltree.NewGeometry(4)
	for _, z := range []float64{0, -1, 1.5, 1e-6} {
		if _, err := balltree.Predict(balltree.SR, data, z, true, g, nil, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("zeta=%v: expected error", z)
		}
	}
	if _, err := balltree.Predict(balltree.SR, nil, 0.5, true, g, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty dataset: expected error")
	}
}

func TestGeometryDirEntriesFatter(t *testing.T) {
	// The SR-tree's known trade-off: directory entries carry rect +
	// sphere, so its fanout is below the R-tree's.
	g := balltree.NewGeometry(60)
	if got := g.EffDirCapacity(balltree.SR); got >= 15 || got < 2 {
		t.Errorf("SR dir capacity = %d, want in [2, 15): below the R*-tree's 15", got)
	}
	if g.EffDataCapacity() != 32 {
		t.Errorf("data capacity = %d, want 32", g.EffDataCapacity())
	}
	if p := g.Params(balltree.SR); p.LeafCap != 32 || p.DirCap != float64(g.EffDirCapacity(balltree.SR)) {
		t.Errorf("SR params = %+v", p)
	}
}
