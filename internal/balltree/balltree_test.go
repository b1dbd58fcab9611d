package balltree

import (
	"math"
	"math/rand"
	"testing"

	"hdidx/internal/dataset"
	"hdidx/internal/query"
	"hdidx/internal/vec"
)

// The per-kind tables of builds, k-NN against brute force and
// prediction accuracy, and each structure's own tests, are in
// kinds_test.go; this file tests the shared helpers.
var kinds = []struct {
	name string
	kind Kind
}{{"SS", SS}, {"SR", SR}, {"M", M}}

// l1 is the Manhattan metric, which shows that the M-tree needs only a
// metric.
func l1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

func clusteredPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	spec := dataset.Spec{Name: "c", N: n, Dim: dim, Clusters: 10, VarianceDecay: 0.9, ClusterStd: 0.1}
	return spec.Generate(rng).Points
}

func TestInsertBounded(t *testing.T) {
	var best []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		best = insertBounded(best, d, 3)
	}
	want := []float64{1, 2, 3}
	if len(best) != 3 {
		t.Fatalf("len = %d", len(best))
	}
	for i := range want {
		if best[i] != want[i] {
			t.Errorf("best[%d] = %v, want %v", i, best[i], want[i])
		}
	}
}

func TestSphereCompensationFactorLimits(t *testing.T) {
	if got := SphereCompensationFactor(32, 1, 8); math.Abs(got-1) > 1e-12 {
		t.Errorf("factor at zeta=1 = %v, want 1", got)
	}
	if got := SphereCompensationFactor(32, 0.1, 8); got <= 1 {
		t.Errorf("factor = %v, want > 1", got)
	}
	// Monotone decreasing in zeta.
	prev := math.Inf(1)
	for _, z := range []float64{0.1, 0.3, 0.5, 0.8, 1.0} {
		f := SphereCompensationFactor(32, z, 8)
		if f > prev {
			t.Errorf("factor not decreasing at zeta=%v", z)
		}
		prev = f
	}
	if got := SphereCompensationFactor(0.5, 0.5, 8); got != 1 {
		t.Errorf("degenerate capacity factor = %v, want 1", got)
	}
}

// Monte Carlo check of the sphere compensation derivation: the
// expected max distance of n uniform points in a d-ball is
// R*n*d/(n*d+1).
func TestSphereShrinkageMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const d, n, trials = 4, 16, 3000
	var sum float64
	for tr := 0; tr < trials; tr++ {
		var max float64
		for i := 0; i < n; i++ {
			// Uniform point in the unit d-ball via normalized Gaussian
			// and radius U^(1/d).
			g := make([]float64, d)
			for j := range g {
				g[j] = rng.NormFloat64()
			}
			norm := vec.Norm(g)
			r := math.Pow(rng.Float64(), 1.0/d)
			dist := 0.0
			for j := range g {
				v := g[j] / norm * r
				dist += v * v
			}
			if dist > max {
				max = dist
			}
		}
		sum += math.Sqrt(max)
	}
	got := sum / trials
	want := float64(n*d) / float64(n*d+1)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("E[max radius] = %v, derivation says %v", got, want)
	}
}

// TestPredictFullSampleExact checks that a full sample rebuilds the
// full tree, so the prediction equals the measured accesses query for
// query. The M-tree's mini tree draws its pivot seed from the
// prediction's generator first, so the measured tree takes that seed.
func TestPredictFullSampleExact(t *testing.T) {
	data := clusteredPoints(4000, 8, 10)
	g := NewGeometry(8)
	rng := rand.New(rand.NewSource(11))
	centers := make([][]float64, 20)
	for i := range centers {
		centers[i] = data[rng.Intn(len(data))]
	}
	spheres := query.ComputeSpheres(data, centers, 5)
	for _, tc := range kinds {
		seed := rand.New(rand.NewSource(12)).Int63()
		measured := MeasureLeafAccesses(Build(tc.kind, clonePoints(data), g.Params(tc.kind), seed), spheres)
		p, err := Predict(tc.kind, data, 1, true, g, spheres, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range measured {
			if p.PerQuery[i] != measured[i] {
				t.Fatalf("%s query %d: predicted %v, measured %v", tc.name, i, p.PerQuery[i], measured[i])
			}
		}
	}
}

func BenchmarkKNNSearch(b *testing.B) {
	data := clusteredPoints(20000, 16, 13)
	for _, tc := range kinds {
		b.Run(tc.name, func(b *testing.B) {
			tr := Build(tc.kind, clonePoints(data), NewGeometry(16).Params(tc.kind), 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				KNNSearch(tr, data[i%len(data)], 21)
			}
		})
	}
}
