package gridfile

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

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
	spec := dataset.Spec{Name: "c", N: n, Dim: dim, Clusters: 8, VarianceDecay: 0.95, ClusterStd: 0.08}
	return spec.Generate(rng).Points
}

func TestBuildValidates(t *testing.T) {
	pts := uniformPoints(5000, 4, 1)
	g, err := Build(pts, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.numPoints != 5000 {
		t.Errorf("numPoints = %d", g.numPoints)
	}
	// ~N/C occupied buckets, more because splits are global.
	if len(g.buckets) < 5000/64 {
		t.Errorf("buckets = %d, want >= %d", len(g.buckets), 5000/64)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, 10); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := Build(uniformPoints(10, 2, 2), 0); err == nil {
		t.Error("expected error for zero capacity")
	}
}

func TestBuildAllIdenticalPoints(t *testing.T) {
	pts := make([][]float64, 50)
	for i := range pts {
		pts[i] = []float64{1, 2}
	}
	g, err := Build(pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	// One oversized bucket of coinciding points is allowed.
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.buckets) != 1 {
		t.Errorf("buckets = %d, want 1", len(g.buckets))
	}
}

// TestBuildFallbackSplit drives the midpoint split: on x, where the
// variance is, 90% of the points sit at 0, so the median lands on the
// lower bound and cannot be a scale.
func TestBuildFallbackSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, 200)
	for i := range pts {
		x := 0.0
		if i%10 == 0 {
			x = 1
		}
		pts[i] = []float64{x, rng.Float64() / 2}
	}
	g, err := Build(pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.buckets) != 47 {
		t.Errorf("buckets = %d, want 47", len(g.buckets))
	}
	for i, q := range pts[:20] {
		for _, k := range []int{1, 8, 21} {
			if got, want := g.KNNSearch(q, k).Radius, query.KNNBruteRadius(pts, q, k); got != want {
				t.Fatalf("query %d, k=%d: radius %v, want %v", i, k, got, want)
			}
		}
	}
}

// TestBuildUnsplittableBucket pins the failure of the midpoint split:
// no float64 lies strictly between 0 and the smallest denormal, so the
// midpoint rounds onto a bound and no split can separate the points.
func TestBuildUnsplittableBucket(t *testing.T) {
	pts := make([][]float64, 40)
	for i := range pts {
		pts[i] = []float64{float64(i%2) * math.SmallestNonzeroFloat64, 0}
	}
	g, err := Build(pts, 8)
	if err == nil {
		t.Fatalf("Build returned a grid file with %d buckets, want an error", len(g.buckets))
	}
	if !strings.Contains(err.Error(), "cannot split a bucket of 40 points") {
		t.Errorf("error = %v", err)
	}
}

// TestBuildHugeSpreadMidpoint splits a bucket whose spread's ends sum
// past the largest float64: the midpoint of [1e308, 1.5e308] is
// 1.25e308, not the +Inf their sum halves to.
func TestBuildHugeSpreadMidpoint(t *testing.T) {
	pts := make([][]float64, 40)
	for i := range pts {
		pts[i] = []float64{1e308, 0}
		if i%2 == 1 {
			pts[i][0] = 1.5e308
		}
	}
	g, err := Build(pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.buckets) != 2 || len(g.Scales[0]) != 1 || g.Scales[0][0] != 1.25e308 {
		t.Fatalf("%d buckets under the scales %v, want 2 under one scale 1.25e308 in dimension 0", len(g.buckets), g.Scales)
	}
}

func TestRegionsDisjointAndCoverPoints(t *testing.T) {
	pts := uniformPoints(2000, 3, 3)
	g, err := Build(pts, 32)
	if err != nil {
		t.Fatal(err)
	}
	regions := g.Regions()
	// Regions of distinct cells must not overlap in their interiors:
	// check centers of every region against all others.
	for i, r := range regions {
		c := r.Center()
		for j, o := range regions {
			if i != j && o.Contains(c) && o.MinSqDist(c) == 0 {
				// Center on a shared boundary is fine; interior overlap
				// is not. Shrink slightly to test interiors.
				shrunk := o.GrowCentered(0.999)
				if shrunk.Contains(c) {
					t.Fatalf("regions %d and %d overlap", i, j)
				}
			}
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	data := clusteredPoints(3000, 4, 4)
	g, err := Build(data, 32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		q := data[rng.Intn(len(data))]
		for _, k := range []int{1, 5, 21} {
			want := query.KNNBruteRadius(data, q, k)
			got := g.KNNSearch(q, k)
			if math.Abs(got.Radius-want) > 1e-9 {
				t.Fatalf("k=%d: radius %v, want %v", k, got.Radius, want)
			}
			if got.BucketAccesses < 1 {
				t.Fatal("no buckets accessed")
			}
		}
	}
}

func TestKNNPanicsOnBadK(t *testing.T) {
	g, err := Build(uniformPoints(10, 2, 6), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.KNNSearch([]float64{0, 0}, 0)
}

// Property: grid file k-NN equals brute force on random inputs.
func TestKNNProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(500)
		dim := 1 + r.Intn(4)
		data := dataset.GenerateUniform("u", n, dim, r).Points
		g, err := Build(data, 4+r.Intn(60))
		if err != nil || g.Validate() != nil {
			return false
		}
		k := 1 + r.Intn(10)
		q := make([]float64, dim)
		for i := range q {
			q[i] = r.Float64()
		}
		want := query.KNNBruteRadius(data, q, k)
		return math.Abs(g.KNNSearch(q, k).Radius-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPredictAccuracyNoCompensationNeeded(t *testing.T) {
	// The headline property of predicting a space-partitioning
	// structure: a scaled mini grid file predicts well with no
	// compensation factor at all.
	data := clusteredPoints(20000, 6, 7)
	const capacity = 128
	g, err := Build(data, capacity)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	queryPoints := make([][]float64, 60)
	for i := range queryPoints {
		queryPoints[i] = data[rng.Intn(len(data))]
	}
	spheres := query.ComputeSpheres(data, queryPoints, 21)
	measured := stats.Mean(MeasureLeafAccesses(g, spheres))

	p, err := Predict(data, 0.2, capacity, spheres, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	re := stats.RelativeError(p.Mean, measured)
	if math.Abs(re) > 0.30 {
		t.Errorf("grid file prediction error %+.2f (pred %.1f, meas %.1f)", re, p.Mean, measured)
	}
}

func TestPredictRejectsBadInputs(t *testing.T) {
	data := uniformPoints(100, 2, 10)
	if _, err := Predict(nil, 0.5, 10, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("expected error for empty data")
	}
	for _, z := range []float64{0, 1.5, 0.01} {
		if _, err := Predict(data, z, 10, nil, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("zeta=%v: expected error", z)
		}
	}
}

func BenchmarkGridFileBuild(b *testing.B) {
	data := clusteredPoints(20000, 6, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(data, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridFileKNN(b *testing.B) {
	data := clusteredPoints(20000, 6, 12)
	g, err := Build(data, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.KNNSearch(data[i%len(data)], 21)
	}
}
