package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hdidx/internal/vec"
)

func TestGenerateUniformShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := GenerateUniform("u", 500, 8, rng)
	if d.N() != 500 || d.Dim() != 8 {
		t.Fatalf("shape = %d x %d", d.N(), d.Dim())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Points {
		for _, v := range p {
			if v < 0 || v >= 1 {
				t.Fatalf("uniform value %v outside [0,1)", v)
			}
		}
	}
}

func TestUniformIsRoughlyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := GenerateUniform("u", 20000, 2, rng)
	mean := make([]float64, 2)
	vec.Mean(d.Points, mean)
	for j, m := range mean {
		if math.Abs(m-0.5) > 0.02 {
			t.Errorf("mean[%d] = %v, want ~0.5", j, m)
		}
	}
}

func TestClusteredSpecShapes(t *testing.T) {
	for _, s := range []Spec{Color64.Scaled(0.01), Texture48.Scaled(0.02), Texture60.Scaled(0.005)} {
		rng := rand.New(rand.NewSource(3))
		d := s.Generate(rng)
		if d.N() != s.N || d.Dim() != s.Dim {
			t.Errorf("%s: shape %dx%d, want %dx%d", s.Name, d.N(), d.Dim(), s.N, s.Dim)
		}
		if err := d.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestClusteredVarianceDecays(t *testing.T) {
	// The KLT-like generator must concentrate variance in leading dims.
	rng := rand.New(rand.NewSource(4))
	s := Texture60.Scaled(0.02)
	d := s.Generate(rng)
	dim := d.Dim()
	mean := make([]float64, dim)
	variance := make([]float64, dim)
	vec.Mean(d.Points, mean)
	vec.Variance(d.Points, mean, variance)
	firstQuarter, lastQuarter := 0.0, 0.0
	for j := 0; j < dim/4; j++ {
		firstQuarter += variance[j]
	}
	for j := 3 * dim / 4; j < dim; j++ {
		lastQuarter += variance[j]
	}
	if firstQuarter < 10*lastQuarter {
		t.Errorf("variance decay too weak: first quarter %v vs last quarter %v", firstQuarter, lastQuarter)
	}
}

func TestScaled(t *testing.T) {
	s := Texture60.Scaled(0.1)
	if s.N != 27547 && s.N != 27546 {
		t.Errorf("Scaled N = %d", s.N)
	}
	if s.Dim != 60 {
		t.Errorf("Scaled Dim = %d", s.Dim)
	}
	tiny := Spec{Name: "x", N: 3, Dim: 2}.Scaled(0.0001)
	if tiny.N < 1 {
		t.Error("Scaled must keep at least one point")
	}
}

func TestTimeSeriesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := Stock360.Scaled(0.01)
	d := s.Generate(rng)
	if d.N() != s.N || d.Dim() != 360 {
		t.Fatalf("shape %dx%d", d.N(), d.Dim())
	}
	// DFT of a random walk concentrates energy in low frequencies: the
	// DC and first few coefficients must dominate.
	dim := d.Dim()
	mean := make([]float64, dim)
	variance := make([]float64, dim)
	vec.Mean(d.Points, mean)
	vec.Variance(d.Points, mean, variance)
	lowE, highE := 0.0, 0.0
	for j := 0; j < 20; j++ {
		lowE += variance[j] + mean[j]*mean[j]
	}
	for j := dim - 20; j < dim; j++ {
		highE += variance[j] + mean[j]*mean[j]
	}
	if lowE < 100*highE {
		t.Errorf("DFT energy not concentrated: low %v vs high %v", lowE, highE)
	}
}

func TestDFTRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 9, 17, 64, 360} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		back := InverseDFTReal(DFTReal(x))
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip x[%d] = %v, want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestDFTConstantSignal(t *testing.T) {
	x := []float64{5, 5, 5, 5}
	c := DFTReal(x)
	if math.Abs(c[0]-5) > 1e-12 {
		t.Errorf("DC = %v, want 5", c[0])
	}
	for i := 1; i < len(c); i++ {
		if math.Abs(c[i]) > 1e-12 {
			t.Errorf("coef[%d] = %v, want 0", i, c[i])
		}
	}
}

// Property: DFTReal/InverseDFTReal invert each other for random
// lengths and values.
func TestDFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		back := InverseDFTReal(DFTReal(x))
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSampleExactSizeAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([][]float64, 1000)
	for i := range pts {
		pts[i] = []float64{float64(i)}
	}
	s := SampleExact(pts, 100, rng)
	if len(s) != 100 {
		t.Fatalf("size = %d, want 100", len(s))
	}
	seen := map[float64]bool{}
	for _, p := range s {
		if seen[p[0]] {
			t.Fatalf("duplicate sample %v", p[0])
		}
		seen[p[0]] = true
	}
	all := SampleExact(pts, 5000, rng)
	if len(all) != 1000 {
		t.Errorf("oversized request returned %d", len(all))
	}
}

func TestSampleExactUnbiased(t *testing.T) {
	// Each element should be picked with probability m/n.
	rng := rand.New(rand.NewSource(10))
	pts := make([][]float64, 10)
	for i := range pts {
		pts[i] = []float64{float64(i)}
	}
	counts := make([]int, 10)
	const trials = 20000
	for tr := 0; tr < trials; tr++ {
		for _, p := range SampleExact(pts, 3, rng) {
			counts[int(p[0])]++
		}
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.3) > 0.02 {
			t.Errorf("element %d picked with rate %v, want ~0.3", i, got)
		}
	}
}

func TestReservoirExactWhenSmallStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := NewReservoir(10, rng)
	for i := 0; i < 5; i++ {
		r.Offer([]float64{float64(i)})
	}
	if len(r.Sample()) != 5 {
		t.Errorf("reservoir holds %d of 5", len(r.Sample()))
	}
}

func TestReservoirUniformity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	counts := make([]int, 20)
	const trials = 5000
	for tr := 0; tr < trials; tr++ {
		r := NewReservoir(5, rng)
		for i := 0; i < 20; i++ {
			r.Offer([]float64{float64(i)})
		}
		for _, p := range r.Sample() {
			counts[int(p[0])]++
		}
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.25) > 0.04 {
			t.Errorf("element %d sampled with rate %v, want ~0.25", i, got)
		}
	}
}

func TestReservoirBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReservoir(0, rand.New(rand.NewSource(1)))
}

func BenchmarkGenerateTexture60Small(b *testing.B) {
	s := Texture60.Scaled(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Generate(rand.New(rand.NewSource(int64(i))))
	}
}

// TestDFTRealMatchesPerTermFormula pins the precomputed cosine and
// sine tables to the per-term formula they replace: every coefficient
// equals refDFTReal's bit for bit, so the generated STOCK360 stand-in
// and every output built on it stay as they were.
func TestDFTRealMatchesPerTermFormula(t *testing.T) {
	for _, n := range []int{1, 2, 7, 360} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 + rng.NormFloat64()
		}
		got, want := DFTReal(x), refDFTReal(x)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: coefficient %d is %v, the per-term formula gives %v", n, i, got[i], want[i])
			}
		}
	}
}

// refDFTReal is DFTReal with every cosine and sine computed in place,
// term by term: the oracle of TestDFTRealMatchesPerTermFormula.
func refDFTReal(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	var dc float64
	for _, v := range x {
		dc += v
	}
	out[0] = dc / float64(n)
	half := (n - 1) / 2
	for k := 1; k <= half; k++ {
		var re, im float64
		for t, v := range x {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			re += v * math.Cos(angle)
			im += v * math.Sin(angle)
		}
		out[2*k-1] = re * 2 / float64(n)
		out[2*k] = im * 2 / float64(n)
	}
	if n%2 == 0 {
		var ny float64
		for t, v := range x {
			if t%2 == 0 {
				ny += v
			} else {
				ny -= v
			}
		}
		out[n-1] = ny / float64(n)
	}
	return out
}

// InverseDFTReal inverts DFTReal: the oracle of the round-trip tests.
func InverseDFTReal(coef []float64) []float64 {
	n := len(coef)
	x := make([]float64, n)
	if n == 0 {
		return x
	}
	half := (n - 1) / 2
	for t := 0; t < n; t++ {
		v := coef[0]
		for k := 1; k <= half; k++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			v += coef[2*k-1]*math.Cos(angle) + coef[2*k]*math.Sin(angle)
		}
		if n%2 == 0 {
			if t%2 == 0 {
				v += coef[n-1]
			} else {
				v -= coef[n-1]
			}
		}
		x[t] = v
	}
	return x
}
