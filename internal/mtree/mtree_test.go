// Package mtree holds the M-tree's tests. The M-tree (Ciaccia, Patella
// & Zezula, VLDB 1997) is balltree.Build with kind balltree.M, or
// balltree.BuildM under another metric: a partition around sampled
// pivots, each page bounded by a ball around its routing object.
package mtree

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

func clusteredPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	spec := dataset.Spec{Name: "c", N: n, Dim: dim, Clusters: 10, VarianceDecay: 0.9, ClusterStd: 0.1}
	return spec.Generate(rng).Points
}

func build(pts [][]float64, p balltree.BuildParams, seed int64) *balltree.Tree {
	return balltree.Build(balltree.M, pts, p, seed)
}

func params() balltree.BuildParams {
	return balltree.BuildParams{LeafCap: 32, DirCap: 15}
}

func TestBuildValidates(t *testing.T) {
	pts := clusteredPoints(3000, 8, 1)
	tr := build(pts, params(), 1)
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
	tr := build(pts, balltree.BuildParams{LeafCap: 10, DirCap: 4}, 0)
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
	build(nil, params(), 1)
}

func TestKNNMatchesBruteForceEuclidean(t *testing.T) {
	data := clusteredPoints(2000, 8, 3)
	tr := build(data, params(), 1)
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

// l1 is the Manhattan metric.
func l1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

func TestKNNMatchesBruteForceL1(t *testing.T) {
	// Metric generality: the M-tree needs only a metric, so L1 must
	// work identically.
	data := clusteredPoints(1500, 6, 5)
	tr := balltree.BuildM(data, params(), l1, 1)
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
		got := balltree.KNNSearch(tr, q, k)
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

func TestKNNPanicsOnBadK(t *testing.T) {
	tr := build(clusteredPoints(10, 2, 7), balltree.BuildParams{LeafCap: 4, DirCap: 4}, 0)
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

// TestPartitionRespectsCapacity checks the pivot partition's spill:
// no leaf holds more than the rounded-up leaf capacity.
func TestPartitionRespectsCapacity(t *testing.T) {
	pts := clusteredPoints(1000, 4, 8)
	tr := build(pts, params(), 1)
	for _, l := range tr.Leaves() {
		if len(l.Points) > 32 {
			t.Errorf("leaf holds %d points", len(l.Points))
		}
	}
}

// Property: M-tree k-NN equals brute force for random data and k.
func TestKNNProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(400)
		dim := 1 + r.Intn(8)
		data := dataset.GenerateUniform("u", n, dim, r).Points
		tr := build(data, balltree.BuildParams{
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
		return math.Abs(balltree.KNNSearch(tr, q, k).Radius-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPredictAccuracy(t *testing.T) {
	data := clusteredPoints(15000, 16, 9)
	g := balltree.NewGeometry(16)
	rng := rand.New(rand.NewSource(10))
	queryPoints := make([][]float64, 60)
	for i := range queryPoints {
		queryPoints[i] = data[rng.Intn(len(data))]
	}
	spheres := query.ComputeSpheres(data, queryPoints, 21)

	tree := build(data, g.Params(balltree.M), 11)
	measured := stats.Mean(balltree.MeasureLeafAccesses(tree, spheres))

	pred, err := balltree.Predict(balltree.M, data, 0.2, true, g, spheres, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	re := stats.RelativeError(pred.Mean, measured)
	if math.Abs(re) > 0.35 {
		t.Errorf("M-tree prediction error %+.2f (pred %.1f, meas %.1f)", re, pred.Mean, measured)
	}
}

func TestPredictRejectsBadFraction(t *testing.T) {
	data := clusteredPoints(100, 4, 13)
	g := balltree.NewGeometry(4)
	for _, z := range []float64{0, -1, 1.5, 1e-6} {
		if _, err := balltree.Predict(balltree.M, data, z, true, g, nil, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("zeta=%v: expected error", z)
		}
	}
	if _, err := balltree.Predict(balltree.M, nil, 0.5, true, g, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty dataset: expected error")
	}
}
