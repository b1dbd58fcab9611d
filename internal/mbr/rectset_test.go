package mbr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refCountIntersections is the slice-based oracle: the loop the query
// package ran before the flat kernel existed.
func refCountIntersections(rects []Rect, center []float64, radius float64) int {
	n := 0
	for _, r := range rects {
		if r.IntersectsSphere(center, radius) {
			n++
		}
	}
	return n
}

// refClassify is the slice-based oracle for RectSet.Classify: first
// containing box wins, otherwise the first strictly-closest box.
func refClassify(boxes []Rect, p []float64) (int, bool) {
	best, bestDist := 0, math.Inf(1)
	for b, box := range boxes {
		d := box.MinSqDist(p)
		if d == 0 {
			return b, true
		}
		if d < bestDist {
			best, bestDist = b, d
		}
	}
	return best, false
}

func randRects(rng *rand.Rand, n, dim int, degenerate bool) []Rect {
	rects := make([]Rect, n)
	for i := range rects {
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for j := range lo {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			if degenerate && rng.Intn(3) == 0 {
				b = a // zero extent in this dimension
			}
			lo[j], hi[j] = a, b
		}
		rects[i] = Rect{Lo: lo, Hi: hi}
	}
	return rects
}

// unbound opens about a quarter of the sides of rects to infinity, the
// way the grid file's boundary cells extend (gridfile.cellRegion), and
// returns rects.
func unbound(rng *rand.Rand, rects []Rect) []Rect {
	for _, r := range rects {
		for j := range r.Lo {
			switch rng.Intn(8) {
			case 0:
				r.Lo[j] = math.Inf(-1)
			case 1:
				r.Hi[j] = math.Inf(1)
			}
		}
	}
	return rects
}

// checkAgainstRect compares all four RectSet methods at p with the Rect
// references over the same rectangles: MinSqDist and unbounded
// MinSqDists bit for bit with Rect.MinSqDist, MinSqDists bounded by r²
// exact at or below it and above it otherwise,
// CountSphereIntersections with Rect.IntersectsSphere, and Classify
// with refClassify.
func checkAgainstRect(t *testing.T, rects []Rect, p []float64, radius float64) {
	t.Helper()
	s := NewRectSet(rects)
	out := make([]float64, len(rects))
	s.MinSqDists(p, 0, len(rects), math.Inf(1), out)
	r2 := radius * radius
	bounded := make([]float64, len(rects))
	s.MinSqDists(p, 0, len(rects), r2, bounded)
	for i, r := range rects {
		want := r.MinSqDist(p)
		if got := s.MinSqDist(i, p); got != want {
			t.Fatalf("rect %v, p %v: MinSqDist %v, want %v", r, p, got, want)
		}
		if out[i] != want {
			t.Fatalf("rect %v, p %v: MinSqDists %v, want %v", r, p, out[i], want)
		}
		if (want <= r2 && bounded[i] != want) || (want > r2 && bounded[i] <= r2) {
			t.Fatalf("rect %v, p %v: MinSqDists bounded by %v gave %v, exact %v", r, p, r2, bounded[i], want)
		}
	}
	if got, want := s.CountSphereIntersections(p, radius), refCountIntersections(rects, p, radius); got != want {
		t.Fatalf("p %v, radius %v: counted %d intersections, oracle %d", p, radius, got, want)
	}
	gotB, gotC := s.Classify(p)
	if wantB, wantC := refClassify(rects, p); gotB != wantB || gotC != wantC {
		t.Fatalf("p %v: Classify = (%d, %v), oracle (%d, %v)", p, gotB, gotC, wantB, wantC)
	}
}

func TestRectSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rects := randRects(rng, 17, 6, true)
	s := NewRectSet(rects)
	if s.Len() != 17 || s.Dim() != 6 {
		t.Fatalf("set is %d rects x %d dims", s.Len(), s.Dim())
	}
	for i, r := range rects {
		got := s.At(i)
		for j := range r.Lo {
			if got.Lo[j] != r.Lo[j] || got.Hi[j] != r.Hi[j] {
				t.Fatalf("rect %d dim %d: got %v, want %v", i, j, got, r)
			}
		}
	}
}

func TestRectSetEmpty(t *testing.T) {
	s := NewRectSet(nil)
	if s.Len() != 0 {
		t.Fatal("empty set has rects")
	}
	if got := s.CountSphereIntersections([]float64{0.5}, 10); got != 0 {
		t.Errorf("empty set counted %d intersections", got)
	}
}

func TestRectSetMismatchedDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mixed dimensionality")
		}
	}()
	NewRectSet([]Rect{New([]float64{1}), New([]float64{1, 2})})
}

// Every method refuses a point of another dimensionality, shorter or
// longer, rather than pricing a prefix of the rectangle or reading the
// next one's corners.
func TestRectSetWrongDimensionPanics(t *testing.T) {
	s := NewRectSet(randRects(rand.New(rand.NewSource(3)), 4, 3, false))
	out := make([]float64, 4)
	methods := map[string]func(p []float64){
		"MinSqDist":                func(p []float64) { s.MinSqDist(1, p) },
		"MinSqDists":               func(p []float64) { s.MinSqDists(p, 0, 4, math.Inf(1), out) },
		"CountSphereIntersections": func(p []float64) { s.CountSphereIntersections(p, 1) },
		"Classify":                 func(p []float64) { s.Classify(p) },
	}
	for name, call := range methods {
		for _, dim := range []int{2, 4} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted a %d-d point in a 3-d set", name, dim)
					}
				}()
				call(make([]float64, dim))
			}()
		}
	}
}

func TestRectSetMinSqDistMatchesRect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rects := unbound(rng, randRects(rng, 50, 8, true))
	s := NewRectSet(rects)
	p := make([]float64, 8)
	for trial := 0; trial < 200; trial++ {
		for j := range p {
			p[j] = rng.Float64()*3 - 1
		}
		for i, r := range rects {
			if got, want := s.MinSqDist(i, p), r.MinSqDist(p); got != want {
				t.Fatalf("rect %d: MinSqDist %v != %v", i, got, want)
			}
		}
	}
}

// The edge cases the MINDIST kernel must get exactly right:
// zero-radius spheres, spheres exactly tangent to a face or corner,
// degenerate (zero-extent) rectangles, and grid-file boundary cells
// whose sides extend to infinity. Every RectSet method must agree with
// the Rect references bit for bit, in three orders of the rectangles
// (Classify's answer depends on the order).
func TestRectSetSphereEdgeCases(t *testing.T) {
	inf := math.Inf(1)
	unit := FromCorners([]float64{0, 0}, []float64{1, 1})
	point := New([]float64{2, 2})                             // fully degenerate
	segment := FromCorners([]float64{4, 0}, []float64{4, 1})  // degenerate in x
	west := FromCorners([]float64{-inf, 0}, []float64{-1, 1}) // boundary cell, open to -x
	northeast := FromCorners([]float64{5, 3}, []float64{inf, inf})
	space := FromCorners([]float64{-inf, -inf}, []float64{inf, inf}) // a one-cell grid
	orders := [][]Rect{
		{unit, point, segment, west, northeast},
		{northeast, west, segment, point, unit},
		{west, space, unit},
	}

	cases := []struct {
		name   string
		center []float64
		radius float64
	}{
		{"zero radius inside", []float64{0.5, 0.5}, 0},
		{"zero radius on corner", []float64{1, 1}, 0},
		{"zero radius outside", []float64{1.5, 0.5}, 0},
		{"tangent to face", []float64{2, 0.5}, 1},
		{"just inside tangency", []float64{2, 0.5}, 1 + 1e-12},
		{"just outside tangency", []float64{2, 0.5}, 1 - 1e-12},
		{"tangent to corner", []float64{1 + 3, 1 + 4}, 5}, // 3-4-5 triangle
		{"tangent to degenerate point", []float64{2, 5}, 3},
		{"tangent to segment end", []float64{4, 4}, 3},
		{"tangent to segment side", []float64{6, 0.5}, 2},
		{"huge radius", []float64{-10, -10}, 100},
		{"inside an open cell", []float64{-1e300, 0.5}, 0},
		{"tangent to an open cell's face", []float64{0, 0.5}, 1},
		{"just outside an open cell's face", []float64{0, 0.5}, 1 - 1e-12},
		{"tangent to an open cell's corner", []float64{2, -1}, 5}, // 3-4-5 to (5, 3)
		{"beyond an open cell's finite side", []float64{-3, 1e300}, 1},
	}
	for _, rects := range orders {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				checkAgainstRect(t, rects, tc.center, tc.radius)
			})
		}
	}
}

// Property: on random rectangles (including degenerate ones, and on
// even seeds unbounded ones) and random spheres — some with radii
// manufactured to be exactly tangent to a rectangle — the flat kernel
// equals the slice-based oracle.
func TestRectSetSphereIntersectionsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(20)
		n := rng.Intn(60)
		rects := randRects(rng, n, dim, true)
		if seed%2 == 0 {
			unbound(rng, rects)
		}
		s := NewRectSet(rects)
		center := make([]float64, dim)
		for trial := 0; trial < 20; trial++ {
			for j := range center {
				center[j] = rng.Float64()*4 - 2
			}
			var radius float64
			switch {
			case trial%5 == 0:
				radius = 0
			case trial%5 == 1 && n > 0:
				// Exact tangency: the distance to a random rectangle.
				radius = rects[rng.Intn(n)].MinDist(center)
			default:
				radius = rng.Float64() * 2
			}
			if got, want := s.CountSphereIntersections(center, radius),
				refCountIntersections(rects, center, radius); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Classify picks exactly the box the sequential reference
// picks — same index, same containment flag — on random point sets,
// including points lying exactly on box boundaries, and on even seeds
// among boxes with unbounded sides.
func TestRectSetClassifyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(12)
		n := 1 + rng.Intn(40)
		rects := randRects(rng, n, dim, true)
		if seed%2 == 0 {
			unbound(rng, rects)
		}
		s := NewRectSet(rects)
		p := make([]float64, dim)
		for trial := 0; trial < 30; trial++ {
			switch {
			case trial%4 == 0:
				// A corner of a random box: exact containment boundary
				// (a random coordinate where that side is unbounded).
				r := rects[rng.Intn(n)]
				for j := range p {
					if rng.Intn(2) == 0 {
						p[j] = r.Lo[j]
					} else {
						p[j] = r.Hi[j]
					}
					if math.IsInf(p[j], 0) {
						p[j] = rng.Float64()*4 - 2
					}
				}
			default:
				for j := range p {
					p[j] = rng.Float64()*4 - 2
				}
			}
			gotB, gotC := s.Classify(p)
			wantB, wantC := refClassify(rects, p)
			if gotB != wantB || gotC != wantC {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// benchRectsAndSpheres stages a leaf-page-like workload: many small
// rectangles, spheres sized so a few percent of them intersect (the
// regime of the paper's intersection counting).
func benchRectsAndSpheres(dim int) ([]Rect, [][]float64, float64) {
	rng := rand.New(rand.NewSource(7))
	const nRects, nSpheres = 2000, 64
	rects := make([]Rect, nRects)
	for i := range rects {
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for j := range lo {
			lo[j] = rng.Float64()
			hi[j] = lo[j] + 0.1
		}
		rects[i] = Rect{Lo: lo, Hi: hi}
	}
	centers := make([][]float64, nSpheres)
	for i := range centers {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64()
		}
		centers[i] = c
	}
	return rects, centers, 0.25 * math.Sqrt(float64(dim)) * 0.3
}

// BenchmarkKernelLeafIntersectFlat exercises the flat RectSet kernel
// at paper-scale dimensionality; its Ref sibling runs the slice-based
// oracle on the identical workload. scripts/bench.sh records their
// ratio in BENCH_kernels.json.
func BenchmarkKernelLeafIntersectFlat(b *testing.B) {
	rects, centers, radius := benchRectsAndSpheres(16)
	s := NewRectSet(rects)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range centers {
			s.CountSphereIntersections(c, radius)
		}
	}
}

func BenchmarkKernelLeafIntersectRef(b *testing.B) {
	rects, centers, radius := benchRectsAndSpheres(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range centers {
			refCountIntersections(rects, c, radius)
		}
	}
}

func BenchmarkKernelLeafIntersectFlat60(b *testing.B) {
	rects, centers, radius := benchRectsAndSpheres(60)
	s := NewRectSet(rects)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range centers {
			s.CountSphereIntersections(c, radius)
		}
	}
}

func BenchmarkKernelLeafIntersectRef60(b *testing.B) {
	rects, centers, radius := benchRectsAndSpheres(60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range centers {
			refCountIntersections(rects, c, radius)
		}
	}
}

func TestRectSetSliceViews(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	rects := randRects(rng, 20, 3, true)
	s := NewRectSet(rects)
	v := s.Slice(5, 8)
	if v.Len() != 8 || v.Dim() != 3 {
		t.Fatalf("slice len=%d dim=%d, want 8/3", v.Len(), v.Dim())
	}
	p := []float64{0.3, 0.7, 0.1}
	for i := 0; i < v.Len(); i++ {
		if got, want := v.MinSqDist(i, p), s.MinSqDist(5+i, p); got != want {
			t.Fatalf("slice rect %d: MinSqDist %v, want %v", i, got, want)
		}
	}
	if empty := s.Slice(7, 0); empty.Len() != 0 {
		t.Fatalf("empty slice has %d rects", empty.Len())
	}
	for _, bad := range [][2]int{{-1, 3}, {0, 21}, {18, 5}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			s.Slice(bad[0], bad[1])
		}()
	}
}

// Property: every completed MinSqDists entry is bit-identical to
// Rect.MinSqDist, and the early exit only drops entries that are
// already above the bound, on bounded rectangles and, on even seeds,
// rectangles with unbounded sides.
func TestRectSetMinSqDistsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		dim := 1 + rng.Intn(8)
		rects := randRects(rng, n, dim, true)
		if seed%2 == 0 {
			unbound(rng, rects)
		}
		s := NewRectSet(rects)
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()*2 - 0.5
		}
		start := rng.Intn(n)
		count := 1 + rng.Intn(n-start)
		out := make([]float64, count)

		// Unbounded: exact equality with the scalar kernel everywhere.
		s.MinSqDists(p, start, count, math.Inf(1), out)
		for i := 0; i < count; i++ {
			if out[i] != rects[start+i].MinSqDist(p) {
				return false
			}
		}
		// Bounded: entries at or below the bound are exact; entries
		// above it are partial sums that still exceed the bound.
		bound := rng.Float64() * float64(dim) * 0.25
		s.MinSqDists(p, start, count, bound, out)
		for i := 0; i < count; i++ {
			exact := rects[start+i].MinSqDist(p)
			if exact <= bound {
				if out[i] != exact {
					return false
				}
			} else if out[i] <= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
