package query

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hdidx/internal/dataset"
	"hdidx/internal/mbr"
	"hdidx/internal/rtree"
)

func uniformPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	return dataset.GenerateUniform("u", n, dim, rng).Points
}

func TestKNNBruteRadiusSmall(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {10}}
	q := []float64{0}
	tests := []struct {
		k    int
		want float64
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 10},
	}
	for _, tt := range tests {
		if got := KNNBruteRadius(pts, q, tt.k); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("k=%d: radius = %v, want %v", tt.k, got, tt.want)
		}
	}
}

func TestKNNBruteRadiusPanics(t *testing.T) {
	for _, k := range []int{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			KNNBruteRadius([][]float64{{0}, {1}}, []float64{0}, k)
		}()
	}
}

func TestComputeSpheresMatchesSequential(t *testing.T) {
	data := uniformPoints(2000, 4, 1)
	queries := uniformPoints(50, 4, 2)
	spheres := ComputeSpheres(data, queries, 5)
	for i, s := range spheres {
		want := KNNBruteRadius(data, queries[i], 5)
		if math.Abs(s.Radius-want) > 1e-12 {
			t.Errorf("query %d: radius %v, want %v", i, s.Radius, want)
		}
	}
}

func TestDensityBiasedWorkloadDrawsFromData(t *testing.T) {
	data := uniformPoints(500, 3, 3)
	rng := rand.New(rand.NewSource(4))
	w := DensityBiasedWorkload(data, 20, 3, rng)
	if len(w) != 20 {
		t.Fatalf("workload size %d", len(w))
	}
	for _, s := range w {
		// Query centers must be dataset points, so 1-NN distance is 0
		// and 3-NN radius is positive.
		if s.Radius <= 0 {
			t.Errorf("radius %v, want > 0", s.Radius)
		}
		found := false
		for _, p := range data {
			if &p[0] == &s.Center[0] {
				t.Fatal("query center aliases a dataset row; workloads must survive in-place dataset transforms")
			}
			equal := true
			for j := range p {
				if p[j] != s.Center[j] {
					equal = false
					break
				}
			}
			if equal {
				found = true
			}
		}
		if !found {
			t.Error("query center is not a copy of a dataset point")
		}
	}
}

func TestCountIntersections(t *testing.T) {
	rects := []mbr.Rect{
		mbr.FromCorners([]float64{0, 0}, []float64{1, 1}),
		mbr.FromCorners([]float64{5, 5}, []float64{6, 6}),
		mbr.FromCorners([]float64{2, 0}, []float64{3, 1}),
	}
	s := Sphere{Center: []float64{1.5, 0.5}, Radius: 0.6}
	if got := CountIntersections(rects, s); got != 2 {
		t.Errorf("intersections = %d, want 2", got)
	}
}

func TestKNNSearchMatchesBruteForce(t *testing.T) {
	data := uniformPoints(3000, 6, 5)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 32, DirCap: 15})
	queries := uniformPoints(30, 6, 6)
	for _, q := range queries {
		for _, k := range []int{1, 5, 21} {
			want := KNNBruteRadius(data, q, k)
			got := KNNSearch(tr, q, k)
			if math.Abs(got.Radius-want) > 1e-9 {
				t.Fatalf("k=%d: tree radius %v, brute %v", k, got.Radius, want)
			}
			if len(got.Neighbors) != k {
				t.Fatalf("k=%d: %d neighbors returned", k, len(got.Neighbors))
			}
		}
	}
}

func TestKNNSearchNeighborsSorted(t *testing.T) {
	data := uniformPoints(500, 3, 7)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 16, DirCap: 8})
	q := []float64{0.5, 0.5, 0.5}
	res := KNNSearch(tr, q, 10)
	prev := -1.0
	for _, nb := range res.Neighbors {
		d := math.Sqrt(sqDist(nb, q))
		if d < prev {
			t.Fatal("neighbors not sorted by distance")
		}
		prev = d
	}
	if math.Abs(prev-res.Radius) > 1e-9 {
		t.Errorf("last neighbor at %v, radius %v", prev, res.Radius)
	}
}

// The central measurement identity: the leaf accesses of the optimal
// best-first search equal the number of leaf MBRs intersecting the
// final k-NN sphere. Both the paper's measurements and its predictions
// rely on this equivalence.
func TestBestFirstAccessesEqualSphereIntersections(t *testing.T) {
	data := uniformPoints(5000, 8, 8)
	tr := rtree.Build(data, rtree.ParamsForGeometry(rtree.NewGeometry(8)))
	rects := tr.LeafRects()
	queries := uniformPoints(40, 8, 9)
	for _, q := range queries {
		res := KNNSearch(tr, q, 21)
		want := CountIntersections(rects, Sphere{Center: q, Radius: res.Radius})
		if res.LeafAccesses != want {
			t.Errorf("best-first accessed %d leaves, sphere intersects %d", res.LeafAccesses, want)
		}
	}
}

func TestMeasureLeafAccessesAgainstKNN(t *testing.T) {
	data := uniformPoints(2000, 4, 10)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 32, DirCap: 15})
	rng := rand.New(rand.NewSource(11))
	spheres := DensityBiasedWorkload(data, 25, 5, rng)
	accesses := MeasureLeafAccesses(tr, spheres)
	for i, s := range spheres {
		res := KNNSearch(tr, s.Center, 5)
		if math.Abs(accesses[i]-float64(res.LeafAccesses)) > 0.5 {
			t.Errorf("query %d: measured %v, search accessed %d", i, accesses[i], res.LeafAccesses)
		}
	}
}

func TestMeasureKNNParallelDeterministic(t *testing.T) {
	data := uniformPoints(1000, 4, 12)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 16, DirCap: 8})
	queries := uniformPoints(64, 4, 13)
	a := MeasureKNNFlat(tr.Flatten(), queries, 3)
	b := MeasureKNNFlat(tr.Flatten(), queries, 3)
	for i := range a {
		if a[i].Radius != b[i].Radius || a[i].LeafAccesses != b[i].LeafAccesses {
			t.Fatal("parallel measurement not deterministic")
		}
	}
}

func TestRangeSearch(t *testing.T) {
	data := uniformPoints(2000, 2, 14)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 32, DirCap: 15})
	s := Sphere{Center: []float64{0.5, 0.5}, Radius: 0.2}
	got, res := RangeSearch(tr, s)
	want := 0
	for _, p := range data {
		if sqDist(p, s.Center) <= s.Radius*s.Radius {
			want++
		}
	}
	if got != want {
		t.Errorf("range count = %d, want %d", got, want)
	}
	if res.LeafAccesses == 0 {
		t.Error("no leaves accessed")
	}
	// Radius 0 at a data point finds at least that point.
	got0, _ := RangeSearch(tr, Sphere{Center: data[0], Radius: 0})
	if got0 < 1 {
		t.Error("zero-radius range at data point found nothing")
	}
}

// Property: tree k-NN radius always equals brute-force radius for
// random trees, queries, and k.
func TestKNNTreeVsBruteProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(1000)
		dim := 1 + r.Intn(6)
		data := dataset.GenerateUniform("u", n, dim, r).Points
		tr := rtree.Build(data, rtree.BuildParams{
			LeafCap: 2 + r.Float64()*30,
			DirCap:  2 + float64(r.Intn(14)),
		})
		k := 1 + r.Intn(10)
		q := make([]float64, dim)
		for i := range q {
			q[i] = r.Float64()
		}
		want := KNNBruteRadius(data, q, k)
		got := KNNSearch(tr, q, k)
		return math.Abs(got.Radius-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the bounded max-heap retains exactly the k smallest values.
func TestBoundedMaxHeapProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(20)
		n := k + r.Intn(100)
		vals := make([]float64, n)
		h := newBoundedMaxHeap(k)
		for i := range vals {
			vals[i] = r.Float64()
			h.offer(vals[i])
		}
		sort.Float64s(vals)
		return math.Abs(h.max()-vals[k-1]) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBoundedMaxHeapNotFull(t *testing.T) {
	h := newBoundedMaxHeap(3)
	h.offer(1)
	if !math.IsInf(h.max(), 1) {
		t.Error("max of non-full heap must be +Inf")
	}
}

func BenchmarkKNNSearch21(b *testing.B) {
	data := uniformPoints(50000, 16, 15)
	tr := rtree.Build(data, rtree.ParamsForGeometry(rtree.NewGeometry(16)))
	queries := uniformPoints(100, 16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KNNSearch(tr, queries[i%len(queries)], 21)
	}
}

func BenchmarkComputeSpheres(b *testing.B) {
	data := uniformPoints(20000, 16, 17)
	queries := uniformPoints(50, 16, 18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeSpheres(data, queries, 21)
	}
}
