package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelativeError = %v, want 0.1", got)
	}
	if got := RelativeError(90, 100); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("RelativeError = %v, want -0.1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero measurement")
		}
	}()
	RelativeError(1, 0)
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("Pearson = %v, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("Pearson = %v, want -1", got)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("Pearson with constant series = %v, want 0", got)
	}
}

func TestPearsonLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

// Property: Pearson is within [-1, 1] and invariant under affine
// transforms with positive scale.
func TestPearsonProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		p := Pearson(xs, ys)
		if p < -1-1e-12 || p > 1+1e-12 {
			return false
		}
		scaled := make([]float64, n)
		a, b := 0.5+r.Float64()*5, r.NormFloat64()*10
		for i := range xs {
			scaled[i] = a*xs[i] + b
		}
		return math.Abs(Pearson(scaled, ys)-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
