package mbr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndExtend(t *testing.T) {
	r := New([]float64{1, 2})
	if r.Volume() != 0 {
		t.Errorf("degenerate volume = %v, want 0", r.Volume())
	}
	r.Extend([]float64{3, 0})
	if r.Lo[0] != 1 || r.Lo[1] != 0 || r.Hi[0] != 3 || r.Hi[1] != 2 {
		t.Errorf("after extend: %v", r)
	}
	if got := r.Volume(); got != 4 {
		t.Errorf("Volume = %v, want 4", got)
	}
	if got := r.Margin(); got != 4 {
		t.Errorf("Margin = %v, want 4", got)
	}
}

func TestFromCornersValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inverted corners")
		}
	}()
	FromCorners([]float64{1}, []float64{0})
}

func TestBound(t *testing.T) {
	pts := [][]float64{{0, 5}, {2, 1}, {1, 3}}
	r := Bound(pts)
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("Bound does not contain %v", p)
		}
	}
	if r.Lo[0] != 0 || r.Lo[1] != 1 || r.Hi[0] != 2 || r.Hi[1] != 5 {
		t.Errorf("Bound = %v", r)
	}
}

func TestContainsBoundaries(t *testing.T) {
	r := FromCorners([]float64{0, 0}, []float64{1, 1})
	for _, p := range [][]float64{{0, 0}, {1, 1}, {0.5, 1}} {
		if !r.Contains(p) {
			t.Errorf("boundary point %v not contained", p)
		}
	}
	if r.Contains([]float64{1.0001, 0.5}) {
		t.Error("outside point contained")
	}
}

// TestOverlapsAndContainsRect checks ContainsRect against an inner, an
// overlapping and a disjoint rectangle.
func TestOverlapsAndContainsRect(t *testing.T) {
	a := FromCorners([]float64{0, 0}, []float64{2, 2})
	b := FromCorners([]float64{1, 1}, []float64{3, 3})
	c := FromCorners([]float64{2.5, 2.5}, []float64{4, 4})
	inner := FromCorners([]float64{0.5, 0.5}, []float64{1.5, 1.5})
	if !a.ContainsRect(inner) || !a.ContainsRect(a) {
		t.Error("a should contain inner and itself")
	}
	if a.ContainsRect(b) || a.ContainsRect(c) {
		t.Error("a should contain neither the overlapping b nor the disjoint c")
	}
}

func TestMinSqDist(t *testing.T) {
	r := FromCorners([]float64{0, 0}, []float64{1, 1})
	tests := []struct {
		p    []float64
		want float64
	}{
		{[]float64{0.5, 0.5}, 0}, // inside
		{[]float64{1, 1}, 0},     // corner
		{[]float64{2, 0.5}, 1},   // right face
		{[]float64{2, 2}, 2},     // corner diagonal
		{[]float64{-3, -4}, 25},  // far corner
		{[]float64{0.5, -2}, 4},  // below
	}
	for _, tt := range tests {
		if got := r.MinSqDist(tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("MinSqDist(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestIntersectsSphere(t *testing.T) {
	r := FromCorners([]float64{0, 0}, []float64{1, 1})
	if !r.IntersectsSphere([]float64{2, 0.5}, 1.0) {
		t.Error("tangent sphere should intersect (closed ball)")
	}
	if r.IntersectsSphere([]float64{2, 0.5}, 0.999) {
		t.Error("short sphere should not intersect")
	}
	if !r.IntersectsSphere([]float64{0.5, 0.5}, 0.0) {
		t.Error("zero-radius sphere inside should intersect")
	}
}

func TestUnion(t *testing.T) {
	a := FromCorners([]float64{0, 0}, []float64{1, 1})
	b := FromCorners([]float64{2, -1}, []float64{3, 0.5})
	u := Union(a, b)
	if !u.ContainsRect(a) || !u.ContainsRect(b) {
		t.Error("union must contain both inputs")
	}
	if u.Lo[0] != 0 || u.Lo[1] != -1 || u.Hi[0] != 3 || u.Hi[1] != 1 {
		t.Errorf("Union = %v", u)
	}
}

func TestGrowCentered(t *testing.T) {
	r := FromCorners([]float64{0, 0}, []float64{2, 4})
	g := r.GrowCentered(2)
	if g.Lo[0] != -1 || g.Hi[0] != 3 || g.Lo[1] != -2 || g.Hi[1] != 6 {
		t.Errorf("GrowCentered = %v", g)
	}
	// Center preserved.
	c, gc := r.Center(), g.Center()
	for i := range c {
		if math.Abs(c[i]-gc[i]) > 1e-12 {
			t.Errorf("center moved: %v -> %v", c, gc)
		}
	}
	// Factor 1 is identity.
	id := r.GrowCentered(1)
	if id.Lo[0] != 0 || id.Hi[1] != 4 {
		t.Errorf("identity grow changed rect: %v", id)
	}
}

func TestSplitAt(t *testing.T) {
	r := FromCorners([]float64{0, 0}, []float64{4, 2})
	l, rr := r.SplitAt(0, 1)
	if l.Hi[0] != 1 || rr.Lo[0] != 1 {
		t.Errorf("SplitAt: %v | %v", l, rr)
	}
	if math.Abs(l.Volume()+rr.Volume()-r.Volume()) > 1e-12 {
		t.Error("split volumes must sum to original")
	}
}

func TestLongestDim(t *testing.T) {
	r := FromCorners([]float64{0, 0, 0}, []float64{1, 5, 3})
	if got := r.LongestDim(); got != 1 {
		t.Errorf("LongestDim = %d, want 1", got)
	}
}

// Property: the bound of a random point set contains all points and
// has minimal corners (every face touches a point).
func TestBoundMinimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		d := 1 + r.Intn(5)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = r.NormFloat64()
			}
		}
		b := Bound(pts)
		for _, p := range pts {
			if !b.Contains(p) {
				return false
			}
		}
		for j := 0; j < d; j++ {
			loTouched, hiTouched := false, false
			for _, p := range pts {
				if p[j] == b.Lo[j] {
					loTouched = true
				}
				if p[j] == b.Hi[j] {
					hiTouched = true
				}
			}
			if !loTouched || !hiTouched {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: MinSqDist is zero exactly for contained points, and any
// point of the rectangle is at least MinDist away.
func TestMinDistProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(4)
		lo, hi := make([]float64, d), make([]float64, d)
		for i := 0; i < d; i++ {
			a, b := r.NormFloat64(), r.NormFloat64()
			lo[i], hi[i] = math.Min(a, b), math.Max(a, b)
		}
		rect := FromCorners(lo, hi)
		p := make([]float64, d)
		for i := range p {
			p[i] = r.NormFloat64() * 2
		}
		md := rect.MinSqDist(p)
		if rect.Contains(p) != (md == 0) {
			return false
		}
		// Sample random points inside the rect; none may be closer than MinDist.
		for k := 0; k < 10; k++ {
			q := make([]float64, d)
			for i := range q {
				q[i] = lo[i] + r.Float64()*(hi[i]-lo[i])
			}
			var s float64
			for i := range q {
				dd := q[i] - p[i]
				s += dd * dd
			}
			if s < md-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompensationSideFactor(t *testing.T) {
	// zeta = 1 must be the identity.
	if got := CompensationSideFactor(30, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("factor at zeta=1 = %v, want 1", got)
	}
	// Known value: C = 10, zeta = 0.5 -> ((5+1)*(10-1)) / ((5-1)*(10+1)) = 54/44.
	if got, want := CompensationSideFactor(10, 0.5), 54.0/44.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("factor(10, .5) = %v, want %v", got, want)
	}
}

func TestCompensationVolumeFactorMatchesTheorem(t *testing.T) {
	c, zeta, d := 32.0, 0.25, 60
	cz := c * zeta
	deltaInv := math.Pow((cz-1)*(c+1)/((cz+1)*(c-1)), float64(d))
	got := math.Pow(CompensationSideFactor(c, zeta), float64(d))
	if math.Abs(got*deltaInv-1) > 1e-9 {
		t.Errorf("volume factor * delta^-1 = %v, want 1", got*deltaInv)
	}
}

// Property: the side factor is monotonically decreasing in zeta and
// always >= 1 over the valid domain.
func TestCompensationMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := 2 + r.Float64()*100
		z1 := (1/c + 1e-6) + r.Float64()*(1-1/c-2e-6)
		z2 := z1 + r.Float64()*(1-z1)
		if z2 <= z1 {
			z2 = (z1 + 1) / 2
		}
		f1 := CompensationSideFactor(c, z1)
		f2 := CompensationSideFactor(c, z2)
		return f1 >= f2 && f2 >= 1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompensationPanicsOutOfDomain(t *testing.T) {
	cases := []struct {
		name     string
		capacity float64
		zeta     float64
	}{
		{"capacity<=1", 1, 0.5},
		{"zeta=0", 10, 0},
		{"zeta>1", 10, 1.5},
		{"belowMinRate", 10, 0.05},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			CompensationSideFactor(tt.capacity, tt.zeta)
		})
	}
}

// Monte Carlo check of Theorem 1's premise: the expected extent of the
// bounding interval of n uniform points on [0, L] is L*(n-1)/(n+1),
// so the per-side shrinkage from capacity C to C*zeta is the ratio of
// those factors.
func TestCompensationMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const c, zeta, trials = 40, 0.25, 4000
	cz := int(c * zeta)
	measure := func(n int) float64 {
		var sum float64
		for tr := 0; tr < trials; tr++ {
			lo, hi := 1.0, 0.0
			for i := 0; i < n; i++ {
				v := rng.Float64()
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			sum += hi - lo
		}
		return sum / trials
	}
	fullExtent := measure(c)
	sampledExtent := measure(cz)
	empirical := fullExtent / sampledExtent
	analytic := CompensationSideFactor(c, zeta)
	if math.Abs(empirical-analytic) > 0.02 {
		t.Errorf("empirical compensation %v vs Theorem 1 %v", empirical, analytic)
	}
}

// TestCompensateGrowsAboutCenter checks compensation the way the
// predictors apply it: growing by the side factor about the center.
func TestCompensateGrowsAboutCenter(t *testing.T) {
	r := FromCorners([]float64{0, 0}, []float64{1, 1})
	g := r.GrowCentered(CompensationSideFactor(10, 0.5))
	if !g.ContainsRect(r) {
		t.Error("compensated rect must contain the original")
	}
	c, gc := r.Center(), g.Center()
	for i := range c {
		if math.Abs(c[i]-gc[i]) > 1e-12 {
			t.Error("compensation moved center")
		}
	}
}

func BenchmarkMinSqDist64(b *testing.B) {
	d := 64
	lo, hi, p := make([]float64, d), make([]float64, d), make([]float64, d)
	for i := 0; i < d; i++ {
		lo[i], hi[i], p[i] = 0, 1, 1.5
	}
	r := FromCorners(lo, hi)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.MinSqDist(p)
	}
}
