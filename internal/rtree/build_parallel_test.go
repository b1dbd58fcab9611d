package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hdidx/internal/par"
)

// BuildSequential is the single-goroutine bulk load, the oracle the
// parallel Build is property-tested against.
func BuildSequential(pts [][]float64, params BuildParams) *Tree {
	return buildWith(pts, params, nil)
}

// forceParallelBuild lowers the fork threshold and widens the pool so
// the parallel paths run even on the small inputs of a unit test (and
// on single-CPU hosts, where GOMAXPROCS alone would disable them).
func forceParallelBuild(t *testing.T, workers int) {
	t.Helper()
	prevWorkers := par.SetWorkers(workers)
	prevMin := forkMinPoints
	forkMinPoints = 8
	t.Cleanup(func() {
		par.SetWorkers(prevWorkers)
		forkMinPoints = prevMin
	})
}

// requireTreesIdentical asserts a is bit-identical to b: same shape,
// levels, page IDs, rectangle bits, and leaf points in the same order
// with the same coordinate bits.
func requireTreesIdentical(t *testing.T, a, b *Tree) {
	t.Helper()
	if a.Dim != b.Dim || a.NumPoints != b.NumPoints {
		t.Fatalf("tree headers differ: (%d, %d) vs (%d, %d)", a.Dim, a.NumPoints, b.Dim, b.NumPoints)
	}
	if na, nb := a.NumNodes(), b.NumNodes(); na != nb {
		t.Fatalf("node counts differ: %d vs %d", na, nb)
	}
	var walk func(path string, x, y *Node)
	walk = func(path string, x, y *Node) {
		if x.Level != y.Level {
			t.Fatalf("%s: levels differ: %d vs %d", path, x.Level, y.Level)
		}
		if x.PageID != y.PageID {
			t.Fatalf("%s: page IDs differ: %d vs %d", path, x.PageID, y.PageID)
		}
		if len(x.Rect.Lo) != len(y.Rect.Lo) {
			t.Fatalf("%s: rect dims differ", path)
		}
		for d := range x.Rect.Lo {
			if math.Float64bits(x.Rect.Lo[d]) != math.Float64bits(y.Rect.Lo[d]) ||
				math.Float64bits(x.Rect.Hi[d]) != math.Float64bits(y.Rect.Hi[d]) {
				t.Fatalf("%s: rects differ in dim %d: [%v,%v] vs [%v,%v]",
					path, d, x.Rect.Lo[d], x.Rect.Hi[d], y.Rect.Lo[d], y.Rect.Hi[d])
			}
		}
		if len(x.Points) != len(y.Points) {
			t.Fatalf("%s: leaf sizes differ: %d vs %d", path, len(x.Points), len(y.Points))
		}
		for i := range x.Points {
			if len(x.Points[i]) != len(y.Points[i]) {
				t.Fatalf("%s: point %d dims differ", path, i)
			}
			for d := range x.Points[i] {
				if math.Float64bits(x.Points[i][d]) != math.Float64bits(y.Points[i][d]) {
					t.Fatalf("%s: point %d differs in dim %d: %v vs %v",
						path, i, d, x.Points[i][d], y.Points[i][d])
				}
			}
		}
		if len(x.Children) != len(y.Children) {
			t.Fatalf("%s: fanouts differ: %d vs %d", path, len(x.Children), len(y.Children))
		}
		for i := range x.Children {
			walk(fmt.Sprintf("%s/%d", path, i), x.Children[i], y.Children[i])
		}
	}
	walk("root", a.Root, b.Root)
}

// copyPoints duplicates the outer slice and every point vector, so the
// two builds reorder and retain fully independent memory.
func copyPoints(pts [][]float64) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = append([]float64(nil), p...)
	}
	return out
}

// TestBuildParallelMatchesSequential is the bit-identity property
// test: across ~100 random (n, d, strategy, height, seed) combos —
// plus degenerate shapes (duplicate points, n < fanout, a single
// dimension, fractional scaled capacities) — the parallel build must
// produce exactly the tree the sequential oracle produces.
func TestBuildParallelMatchesSequential(t *testing.T) {
	forceParallelBuild(t, 4)
	rng := rand.New(rand.NewSource(42))
	cases := 0
	check := func(pts [][]float64, params BuildParams, label string) {
		t.Helper()
		cases++
		seq := BuildSequential(copyPoints(pts), params)
		parTree := Build(copyPoints(pts), params)
		if err := seq.Validate(); err != nil {
			t.Fatalf("%s: sequential oracle invalid: %v", label, err)
		}
		requireTreesIdentical(t, parTree, seq)
	}

	strategies := []SplitStrategy{SplitMaxVariance, SplitLongestSide}
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(3000)
		d := 1 + rng.Intn(64)
		params := BuildParams{
			LeafCap: float64(2 + rng.Intn(40)),
			DirCap:  float64(2 + rng.Intn(20)),
			Split:   strategies[rng.Intn(len(strategies))],
		}
		if rng.Intn(3) == 0 {
			// Fractional capacities + forced height, the predictors'
			// scaled mini-index configuration.
			zeta := 0.05 + 0.5*rng.Float64()
			full := params.DeriveHeight(int(float64(n) / zeta))
			params = params.Scaled(zeta, full)
		}
		seed := rng.Int63()
		pts := uniformPoints(n, d, seed)
		if rng.Intn(4) == 0 {
			// Inject duplicate runs: same point repeated many times
			// drives zero-variance splits through the degenerate cut
			// paths.
			src := rand.New(rand.NewSource(seed + 1))
			for i := range pts {
				if src.Intn(3) == 0 {
					pts[i] = append([]float64(nil), pts[0]...)
				}
			}
		}
		check(pts, params, fmt.Sprintf("trial %d (n=%d d=%d)", trial, n, d))
	}

	// Directed degenerate shapes.
	degenerate := []struct {
		label  string
		pts    [][]float64
		params BuildParams
	}{
		{"single point", uniformPoints(1, 16, 1), BuildParams{LeafCap: 10, DirCap: 5}},
		{"n < fanout", uniformPoints(3, 8, 2), BuildParams{LeafCap: 1, DirCap: 10, Height: 2}},
		{"all duplicates", func() [][]float64 {
			pts := make([][]float64, 500)
			for i := range pts {
				pts[i] = []float64{0.5, 0.5, 0.5}
			}
			return pts
		}(), BuildParams{LeafCap: 7, DirCap: 4}},
		{"single dimension", uniformPoints(2000, 1, 3), BuildParams{LeafCap: 13, DirCap: 6}},
		{"forced tall height", uniformPoints(50, 4, 4), BuildParams{LeafCap: 4, DirCap: 3, Height: 5}},
		{"longest-side duplicates", func() [][]float64 {
			pts := uniformPoints(800, 5, 5)
			for i := 0; i < len(pts); i += 2 {
				pts[i] = append([]float64(nil), pts[1]...)
			}
			return pts
		}(), BuildParams{LeafCap: 9, DirCap: 4, Split: SplitLongestSide}},
	}
	for _, tc := range degenerate {
		check(tc.pts, tc.params, tc.label)
	}

	if cases < 80 {
		t.Fatalf("only %d cases exercised", cases)
	}
}

// TestBuildParallelAcrossWorkerCounts pins one geometry and checks the
// build is invariant across pool widths, including widths far above
// the host's CPU count.
func TestBuildParallelAcrossWorkerCounts(t *testing.T) {
	pts := uniformPoints(4000, 16, 7)
	params := BuildParams{LeafCap: 25, DirCap: 8}
	want := BuildSequential(copyPoints(pts), params)
	for _, workers := range []int{2, 3, 4, 8, 16} {
		forceParallelBuild(t, workers)
		got := Build(copyPoints(pts), params)
		requireTreesIdentical(t, got, want)
	}
}

// TestBuildParallelPanicSurfaces checks a panic inside a forked
// subtree build reaches the Build caller instead of killing the
// process (ragged input triggers a panic deep in the variance pass).
func TestBuildParallelPanicSurfaces(t *testing.T) {
	forceParallelBuild(t, 4)
	pts := uniformPoints(600, 8, 9)
	pts[431] = pts[431][:3] // ragged point deep in the set
	defer func() {
		if recover() == nil {
			t.Fatal("Build on ragged input did not panic")
		}
	}()
	Build(pts, BuildParams{LeafCap: 5, DirCap: 4})
}

// BenchmarkBuildWorkers measures the parallel bulk load across pool
// widths at the paper's two headline dimensionalities. scripts/bench.sh
// turns the best ns/op of each width into BENCH_build.json with the
// w1/wN speedups; on a single-CPU host the speedup is necessarily ~1x.
func BenchmarkBuildWorkers(b *testing.B) {
	for _, d := range []int{16, 60} {
		pts := uniformPoints(20000, d, 1)
		params := ParamsForGeometry(NewGeometry(d))
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("d%d/w%d", d, w), func(b *testing.B) {
				prev := par.SetWorkers(w)
				defer par.SetWorkers(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Build(pts, params)
				}
			})
		}
	}
}
