package baseline

import (
	"math"
	"math/rand"
	"testing"

	"hdidx/internal/dataset"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
)

func TestBuildHistogramBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := dataset.GenerateUniform("u", 10000, 4, rng).Points
	h, err := BuildHistogram(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Grid < 2 {
		t.Errorf("grid = %d", h.Grid)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10000 {
		t.Errorf("counts sum to %d", total)
	}
}

func TestBuildHistogramErrors(t *testing.T) {
	if _, err := BuildHistogram(nil, 2); err == nil {
		t.Error("expected error for empty input")
	}
	rng := rand.New(rand.NewSource(2))
	pts := dataset.GenerateUniform("u", 10, 3, rng).Points
	for _, d := range []int{0, 4} {
		if _, err := BuildHistogram(pts, d); err == nil {
			t.Errorf("dims=%d: expected error", d)
		}
	}
}

func TestHistogramGridShrinksWithDims(t *testing.T) {
	// The Section 2.3 critique made concrete: region budgets force
	// coarse grids as dimensionality grows.
	rng := rand.New(rand.NewSource(3))
	pts := dataset.GenerateUniform("u", 2000, 30, rng).Points
	prev := 1 << 30
	for _, d := range []int{2, 5, 10, 20} {
		h, err := BuildHistogram(pts, d)
		if err != nil {
			t.Fatal(err)
		}
		if h.Grid > prev {
			t.Errorf("grid grew with dims at %d", d)
		}
		prev = h.Grid
	}
	h20, _ := BuildHistogram(pts, 20)
	if h20.Grid > 2 {
		t.Errorf("20-d grid = %d, expected collapse to <= 2", h20.Grid)
	}
}

func TestDensityAtWholeSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := dataset.GenerateUniform("u", 5000, 3, rng).Points
	h, err := BuildHistogram(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := h.DensityAt(h.Lo, h.Hi)
	if math.Abs(got-5000) > 1 {
		t.Errorf("whole-space density = %v, want 5000", got)
	}
	// A quadrant of uniform data holds ~ an eighth of the points.
	mid := make([]float64, 3)
	for d := range mid {
		mid[d] = (h.Lo[d] + h.Hi[d]) / 2
	}
	eighth := h.DensityAt(h.Lo, mid)
	if math.Abs(eighth-625) > 120 {
		t.Errorf("octant density = %v, want ~625", eighth)
	}
}

func TestDensityAtEmptyRegion(t *testing.T) {
	// Two clusters; the gap between them must read near-zero density.
	pts := make([][]float64, 2000)
	rng := rand.New(rand.NewSource(5))
	for i := range pts {
		base := 0.0
		if i%2 == 0 {
			base = 10.0
		}
		pts[i] = []float64{base + rng.Float64(), rng.Float64()}
	}
	h, err := BuildHistogram(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	gap := h.DensityAt([]float64{3, 0}, []float64{8, 1})
	if gap > 50 {
		t.Errorf("gap density = %v, want near zero", gap)
	}
}

func TestHistogramModelReasonableInLowDim(t *testing.T) {
	// In the regime histograms were designed for (low dimensionality),
	// the model should land within a factor ~2 of the measurement.
	rng := rand.New(rand.NewSource(6))
	spec := dataset.Spec{Name: "c", N: 30000, Dim: 4, Clusters: 6, VarianceDecay: 1, ClusterStd: 0.08}
	pts := spec.Generate(rng).Points
	g := rtree.NewGeometry(4)
	queryPoints := make([][]float64, 50)
	for i := range queryPoints {
		queryPoints[i] = pts[rng.Intn(len(pts))]
	}
	spheres := query.ComputeSpheres(pts, queryPoints, 21)
	tree := rtree.Build(pts, rtree.ParamsForGeometry(g))
	var measured float64
	for _, a := range query.MeasureLeafAccesses(tree, spheres) {
		measured += a
	}
	measured /= float64(len(spheres))

	h, err := BuildHistogram(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := HistogramModel(h, g, spheres)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses < measured/2.5 || res.Accesses > measured*2.5 {
		t.Errorf("histogram accesses %.1f vs measured %.1f (outside factor 2.5)", res.Accesses, measured)
	}
}

func TestHistogramModelNoQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := dataset.GenerateUniform("u", 100, 2, rng).Points
	h, err := BuildHistogram(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HistogramModel(h, rtree.NewGeometry(2), nil); err == nil {
		t.Error("expected error")
	}
}
