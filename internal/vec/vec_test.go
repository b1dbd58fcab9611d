package vec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSqDist(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"zero", []float64{0, 0}, []float64{0, 0}, 0},
		{"unit", []float64{0, 0}, []float64{1, 0}, 1},
		{"pythagoras", []float64{0, 0}, []float64{3, 4}, 25},
		{"negative", []float64{-1, -1}, []float64{1, 1}, 8},
		{"1d", []float64{2.5}, []float64{-2.5}, 25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SqDist(tt.a, tt.b); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("SqDist(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
			if got := Dist(tt.a, tt.b); !almostEqual(got, math.Sqrt(tt.want), 1e-12) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.a, tt.b, got, math.Sqrt(tt.want))
			}
		})
	}
}

func TestSqDistDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	SqDist([]float64{1}, []float64{1, 2})
}

func TestMeanVariance(t *testing.T) {
	pts := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	mean := make([]float64, 2)
	variance := make([]float64, 2)
	Mean(pts, mean)
	Variance(pts, mean, variance)
	if !almostEqual(mean[0], 3, 1e-12) || !almostEqual(mean[1], 10, 1e-12) {
		t.Errorf("mean = %v, want [3 10]", mean)
	}
	// Population variance of {1,3,5} is 8/3.
	if !almostEqual(variance[0], 8.0/3.0, 1e-12) {
		t.Errorf("variance[0] = %v, want 8/3", variance[0])
	}
	if !almostEqual(variance[1], 0, 1e-12) {
		t.Errorf("variance[1] = %v, want 0", variance[1])
	}
}

func TestMeanEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty point set")
		}
	}()
	Mean(nil, make([]float64, 1))
}

func TestMaxVarianceDim(t *testing.T) {
	pts := [][]float64{{0, 0, 0}, {1, 5, 2}, {2, 10, 4}}
	if got := MaxVarianceDim(pts); got != 1 {
		t.Errorf("MaxVarianceDim = %d, want 1", got)
	}
}

func TestMaxVarianceDimTieBreaksLow(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 2}}
	if got := MaxVarianceDim(pts); got != 0 {
		t.Errorf("MaxVarianceDim = %d, want 0 on tie", got)
	}
}

func TestMinMax(t *testing.T) {
	pts := [][]float64{{3, -1}, {1, 5}, {2, 2}}
	lo, hi := MinMax(pts)
	if lo[0] != 1 || lo[1] != -1 || hi[0] != 3 || hi[1] != 5 {
		t.Errorf("MinMax = %v %v, want [1 -1] [3 5]", lo, hi)
	}
}

func TestClonePointsIndependent(t *testing.T) {
	pts := [][]float64{{1, 2}, {3, 4}}
	c := ClonePoints(pts)
	c[0][0] = 99
	if pts[0][0] != 1 {
		t.Error("ClonePoints did not deep-copy")
	}
	// The rows share one backing array; appending to one returned row
	// must reallocate it rather than write over the next row.
	_ = append(c[0], 7)
	if c[1][0] != 3 || c[1][1] != 4 {
		t.Errorf("appending to row 0 overwrote row 1: %v", c[1])
	}
}

func TestSelectByDimSmall(t *testing.T) {
	pts := [][]float64{{5}, {1}, {4}, {2}, {3}}
	SelectByDim(pts, 0, 2)
	if pts[2][0] != 3 {
		t.Errorf("pts[2] = %v, want 3", pts[2][0])
	}
	for _, p := range pts[:2] {
		if p[0] > 3 {
			t.Errorf("left half contains %v > pivot", p[0])
		}
	}
	for _, p := range pts[3:] {
		if p[0] < 3 {
			t.Errorf("right half contains %v < pivot", p[0])
		}
	}
}

func TestSelectByDimOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SelectByDim([][]float64{{1}}, 0, 5)
}

// Property: SelectByDim places the order statistic that a full sort
// would, for random inputs with duplicates, on any dimension.
func TestSelectByDimMatchesSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		dim := 1 + r.Intn(4)
		d := r.Intn(dim)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, dim)
			for j := range pts[i] {
				// Coarse values to force duplicates.
				pts[i][j] = float64(r.Intn(10))
			}
		}
		k := r.Intn(n)
		want := make([]float64, n)
		for i, p := range pts {
			want[i] = p[d]
		}
		sort.Float64s(want)
		SelectByDim(pts, d, k)
		if pts[k][d] != want[k] {
			return false
		}
		for _, p := range pts[:k] {
			if p[d] > pts[k][d] {
				return false
			}
		}
		for _, p := range pts[k+1:] {
			if p[d] < pts[k][d] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPartitionByDim(t *testing.T) {
	pts := [][]float64{{5, 0}, {1, 0}, {4, 0}, {2, 0}, {3, 0}}
	left, right := PartitionByDim(pts, 0, 2)
	if len(left) != 2 || len(right) != 3 {
		t.Fatalf("split sizes %d/%d, want 2/3", len(left), len(right))
	}
	maxLeft := math.Inf(-1)
	for _, p := range left {
		maxLeft = math.Max(maxLeft, p[0])
	}
	for _, p := range right {
		if p[0] < maxLeft {
			t.Errorf("partition violated: right %v < left max %v", p[0], maxLeft)
		}
	}
}

func TestPartitionByDimBadSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PartitionByDim([][]float64{{1}, {2}}, 0, 0)
}

func BenchmarkSqDist64(b *testing.B) {
	a := make([]float64, 64)
	c := make([]float64, 64)
	for i := range a {
		a[i] = float64(i)
		c[i] = float64(64 - i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SqDist(a, c)
	}
}

func BenchmarkSelectByDim(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([][]float64, 10000)
	for i := range base {
		base[i] = []float64{rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pts := make([][]float64, len(base))
		copy(pts, base)
		b.StartTimer()
		SelectByDim(pts, 0, len(pts)/2)
	}
}
