package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hdidx/internal/dataset"
	"hdidx/internal/par"
	"hdidx/internal/vec"
)

// refComputeSpheres is the slice-based oracle: one full-distance
// KNNBruteRadius scan per query, exactly what ComputeSpheres ran
// before the flat kernel existed.
func refComputeSpheres(data, queryPoints [][]float64, k int) []Sphere {
	spheres := make([]Sphere, len(queryPoints))
	for i := range queryPoints {
		spheres[i] = Sphere{
			Center: queryPoints[i],
			Radius: KNNBruteRadius(data, queryPoints[i], k),
		}
	}
	return spheres
}

// The flat early-exit kernel must return bit-identical radii to the
// slice-based oracle — not merely close: the early exit only skips
// points the bounded heap would reject, and the per-dimension
// accumulation order is unchanged.
func TestComputeSpheresBitIdenticalToOracle(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 7, 16, 60} {
		data := uniformPoints(1500, dim, int64(dim))
		queries := uniformPoints(40, dim, int64(dim)+100)
		for _, k := range []int{1, 2, 21, 1500} {
			got := ComputeSpheres(data, queries, k)
			want := refComputeSpheres(data, queries, k)
			for i := range want {
				if got[i].Radius != want[i].Radius {
					t.Fatalf("dim=%d k=%d query %d: flat radius %v != oracle %v",
						dim, k, i, got[i].Radius, want[i].Radius)
				}
			}
		}
	}
}

// Adversarial inputs for the early exit: massive duplication (many
// ties at the k-th distance), query points that are dataset points
// (zero distances), and coordinates of wildly different magnitude.
func TestComputeSpheresAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dim := 8
	data := make([][]float64, 600)
	for i := range data {
		p := make([]float64, dim)
		switch i % 3 {
		case 0: // duplicate cluster
			for j := range p {
				p[j] = 0.5
			}
		case 1: // axis points with huge coordinates
			p[i%dim] = 1e9
		default:
			for j := range p {
				p[j] = rng.Float64()
			}
		}
		data[i] = p
	}
	queries := append([][]float64{}, data[0], data[1], data[599])
	queries = append(queries, uniformPoints(10, dim, 10)...)
	for _, k := range []int{1, 3, 200, 600} {
		got := ComputeSpheres(data, queries, k)
		want := refComputeSpheres(data, queries, k)
		for i := range want {
			if got[i].Radius != want[i].Radius {
				t.Fatalf("k=%d query %d: flat radius %v != oracle %v", k, i, got[i].Radius, want[i].Radius)
			}
		}
	}
}

// Property: on random datasets, dimensions, and k, flat and oracle
// radii agree bit for bit.
func TestComputeSpheresProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(400)
		dim := 1 + rng.Intn(24)
		data := dataset.GenerateUniform("u", n, dim, rng).Points
		q := 1 + rng.Intn(20)
		queries := make([][]float64, q)
		for i := range queries {
			if rng.Intn(2) == 0 {
				queries[i] = data[rng.Intn(n)]
			} else {
				queries[i] = dataset.GenerateUniform("q", 1, dim, rng).Points[0]
			}
		}
		k := 1 + rng.Intn(n)
		got := ComputeSpheres(data, queries, k)
		want := refComputeSpheres(data, queries, k)
		for i := range want {
			if got[i].Radius != want[i].Radius {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestComputeSpheresPanicsOnBadK(t *testing.T) {
	data := uniformPoints(10, 2, 1)
	queries := uniformPoints(2, 2, 2)
	for _, k := range []int{0, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			ComputeSpheres(data, queries, k)
		}()
	}
}

func TestSqDistBoundedMatchesSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{1, 3, 4, 5, 8, 17, 64} {
		a := make([]float64, dim)
		b := make([]float64, dim)
		for trial := 0; trial < 50; trial++ {
			for j := range a {
				a[j] = rng.Float64() * 10
				b[j] = rng.Float64() * 10
			}
			want := vec.SqDist(a, b)
			got, ok := sqDistBounded(a, b, want)
			if !ok || got != want {
				t.Fatalf("dim=%d: bounded (%v,%v) vs full %v", dim, got, ok, want)
			}
			// Under a tighter bound the partial sum must exceed it.
			if want > 0 {
				if _, ok := sqDistBounded(a, b, want/2); ok {
					t.Fatalf("dim=%d: bound %v not enforced", dim, want/2)
				}
			}
		}
	}
}

// Dataset sizes around the group and batch boundaries of the packed
// scan: lane-count multiples plus/minus one (tail rows), exactly one
// batch, one batch plus one group.
func TestComputeSpheresPackedBoundaries(t *testing.T) {
	l, _ := scanKernel()
	sizes := []int{l, l + 1, 2*l - 1, scanBatch, scanBatch + l, scanBatch + l + 1}
	for _, n := range sizes {
		data := uniformPoints(n, 16, int64(n))
		queries := uniformPoints(10, 16, int64(n)+1000)
		got := ComputeSpheres(data, queries, min(21, n))
		want := refComputeSpheres(data, queries, min(21, n))
		for i := range want {
			if got[i].Radius != want[i].Radius {
				t.Fatalf("n=%d query %d: radius %v != oracle %v", n, i, got[i].Radius, want[i].Radius)
			}
		}
	}
}

// benchSpheresInput stages the paper-scale regime the acceptance
// criterion names: d >= 16, 21-NN, density-biased queries.
func benchSpheresInput(dim int) ([][]float64, [][]float64) {
	data := uniformPoints(20000, dim, 17)
	queries := make([][]float64, 50)
	rng := rand.New(rand.NewSource(18))
	for i := range queries {
		queries[i] = data[rng.Intn(len(data))]
	}
	return data, queries
}

// BenchmarkKernelComputeSpheresFlat exercises the production path
// (packed groups, early exit, chunked parallel fan-out); its Ref
// sibling runs the slice-based oracle over the identical workload and
// parallelism. scripts/bench.sh records their ratio in
// BENCH_kernels.json.
func BenchmarkKernelComputeSpheresFlat(b *testing.B) {
	data, queries := benchSpheresInput(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeSpheres(data, queries, 21)
	}
}

func BenchmarkKernelComputeSpheresRef(b *testing.B) {
	data, queries := benchSpheresInput(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spheres := make([]Sphere, len(queries))
		par.For(len(queries), func(j int) {
			spheres[j] = Sphere{Center: queries[j], Radius: KNNBruteRadius(data, queries[j], 21)}
		})
	}
}

func BenchmarkKernelComputeSpheresFlat60(b *testing.B) {
	data, queries := benchSpheresInput(60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeSpheres(data, queries, 21)
	}
}

func BenchmarkKernelComputeSpheresRef60(b *testing.B) {
	data, queries := benchSpheresInput(60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spheres := make([]Sphere, len(queries))
		par.For(len(queries), func(j int) {
			spheres[j] = Sphere{Center: queries[j], Radius: KNNBruteRadius(data, queries[j], 21)}
		})
	}
}

// BenchmarkKernelSphereScanner60 streams the d60 workload through a
// SphereScanner in chunks of 1,000 rows, the chunk size the resampled
// predictor's scan reads at M = 1,000.
func BenchmarkKernelSphereScanner60(b *testing.B) {
	data, queries := benchSpheresInput(60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSphereScanner(queries, 21)
		for off := 0; off < len(data); off += 1000 {
			s.Process(data[off:min(off+1000, len(data))])
		}
		s.Spheres()
	}
}
