package vafile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hdidx/internal/dataset"
	"hdidx/internal/query"
	"hdidx/internal/vec"
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

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, 4, 8192); err == nil {
		t.Error("expected error for empty input")
	}
	pts := uniformPoints(10, 2, 1)
	if _, err := Build(pts, 0, 8192); err == nil {
		t.Error("expected error for zero bits")
	}
	if _, err := Build(pts, 4, 0); err == nil {
		t.Error("expected error for zero page size")
	}
}

func TestApproximationPages(t *testing.T) {
	pts := uniformPoints(1000, 16, 2)
	v, err := Build(pts, 4, 8192)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 * 4 * 16 bits = 8000 bytes -> ceil(8000/8192) = 1 page.
	if got := v.ApproximationPages(); got != 1 {
		t.Errorf("pages = %d, want 1", got)
	}
	v8, err := Build(pts, 8, 8192)
	if err != nil {
		t.Fatal(err)
	}
	// 16000 bytes -> 2 pages.
	if got := v8.ApproximationPages(); got != 2 {
		t.Errorf("pages = %d, want 2", got)
	}
}

func TestCellAssignment(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
	v, err := Build(pts, 2, 8192) // 4 slices over 8 equi-populated values
	if err != nil {
		t.Fatal(err)
	}
	// Each point must land in a cell whose mark interval contains it.
	for _, p := range pts {
		c := v.cell(0, p[0])
		if p[0] < v.marks[0][c] || p[0] >= v.marks[0][c+1] {
			t.Errorf("point %v in cell %d = [%v, %v)", p[0], c, v.marks[0][c], v.marks[0][c+1])
		}
	}
}

func TestBoundsBracketTrueDistance(t *testing.T) {
	pts := clusteredPoints(2000, 8, 3)
	v, err := Build(pts, 5, 8192)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(len(pts))
		q := pts[rng.Intn(len(pts))]
		lo2, hi2 := v.bounds(q, v.approx[i])
		d2 := vec.SqDist(pts[i], q)
		if d2 < lo2-1e-9 || d2 > hi2+1e-9 {
			t.Fatalf("bounds [%v, %v] miss true %v", lo2, hi2, d2)
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	data := clusteredPoints(3000, 12, 5)
	v, err := Build(data, 6, 8192)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		q := data[rng.Intn(len(data))]
		for _, k := range []int{1, 5, 21} {
			want := query.KNNBruteRadius(data, q, k)
			got := v.KNNSearch(q, k)
			if math.Abs(got.Radius-want) > 1e-9 {
				t.Fatalf("k=%d: radius %v, want %v", k, got.Radius, want)
			}
			if got.VectorAccesses < k {
				t.Fatalf("k=%d: only %d vector accesses", k, got.VectorAccesses)
			}
		}
	}
}

func TestFilterPrunes(t *testing.T) {
	// With enough bits, the filter must discard the vast majority of
	// candidates on clustered data.
	data := clusteredPoints(10000, 12, 7)
	v, err := Build(data, 6, 8192)
	if err != nil {
		t.Fatal(err)
	}
	res := v.KNNSearch(data[42], 10)
	if res.Candidates > len(data)/2 {
		t.Errorf("filter kept %d of %d", res.Candidates, len(data))
	}
	if res.VectorAccesses > res.Candidates {
		t.Error("refined more than the candidate set")
	}
}

func TestMoreBitsFewerAccesses(t *testing.T) {
	data := clusteredPoints(5000, 12, 8)
	coarse, err := Build(data, 2, 8192)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Build(data, 8, 8192)
	if err != nil {
		t.Fatal(err)
	}
	var coarseAcc, fineAcc int
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		q := data[rng.Intn(len(data))]
		coarseAcc += coarse.KNNSearch(q, 10).VectorAccesses
		fineAcc += fine.KNNSearch(q, 10).VectorAccesses
	}
	if fineAcc >= coarseAcc {
		t.Errorf("8-bit accesses %d not below 2-bit %d", fineAcc, coarseAcc)
	}
}

func TestKNNPanics(t *testing.T) {
	v, err := Build(uniformPoints(10, 2, 10), 4, 8192)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(){
		func() { v.KNNSearch([]float64{0, 0}, 0) },
		func() { v.KNNSearch([]float64{0}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDuplicateHeavyData(t *testing.T) {
	// Many identical coordinates collapse quantile slices; search must
	// stay exact.
	pts := make([][]float64, 500)
	rng := rand.New(rand.NewSource(11))
	for i := range pts {
		v := float64(i % 5)
		pts[i] = []float64{v, rng.Float64()}
	}
	v, err := Build(pts, 3, 8192)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{2, 0.5}
	want := query.KNNBruteRadius(pts, q, 7)
	if got := v.KNNSearch(q, 7); math.Abs(got.Radius-want) > 1e-9 {
		t.Fatalf("radius %v, want %v", got.Radius, want)
	}
}

// Property: VA-file k-NN is exact for random data, bits, and k.
func TestKNNExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(500)
		dim := 1 + r.Intn(8)
		data := dataset.GenerateUniform("u", n, dim, r).Points
		v, err := Build(data, 1+r.Intn(8), 8192)
		if err != nil {
			return false
		}
		k := 1 + r.Intn(10)
		q := make([]float64, dim)
		for i := range q {
			q[i] = r.Float64()
		}
		want := query.KNNBruteRadius(data, q, k)
		return math.Abs(v.KNNSearch(q, k).Radius-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The Section 4.7 point: the VA-file's scan cost is a constant of the
// structure — identical for every query and every data distribution of
// the same size, hence outside the scope of the paper's predictors.
func TestScanCostIsDistributionIndependent(t *testing.T) {
	a, err := Build(uniformPoints(5000, 16, 12), 6, 8192)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(clusteredPoints(5000, 16, 13), 6, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if a.ApproximationPages() != b.ApproximationPages() {
		t.Errorf("scan pages differ: %d vs %d", a.ApproximationPages(), b.ApproximationPages())
	}
}

// TestKNNSearchAllocs pins the allocation count of one search to the
// fixed set of buffers it provisions up front (the per-scan lower
// bounds, the two bounded heaps, and the exactly-sized candidate
// heap). The concrete candHeap must not re-introduce the per-entry
// interface{} boxing container/heap imposed: boxing alone would put
// the count back in the hundreds on this workload.
func TestKNNSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs accounting is distorted under -race")
	}
	data := clusteredPoints(5000, 12, 21)
	v, err := Build(data, 6, 8192)
	if err != nil {
		t.Fatal(err)
	}
	q := data[123]
	allocs := testing.AllocsPerRun(20, func() {
		v.KNNSearch(q, 10)
	})
	// lo2s + two k-smallest heaps (struct + backing array each) + the
	// candidate heap = 6; allow a little headroom.
	if allocs > 8 {
		t.Errorf("KNNSearch allocated %.1f times per run, want <= 8", allocs)
	}
}

func BenchmarkVAFileKNN(b *testing.B) {
	data := clusteredPoints(20000, 32, 14)
	v, err := Build(data, 6, 8192)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.KNNSearch(data[i%len(data)], 21)
	}
}
