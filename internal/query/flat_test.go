package query

import (
	"math/rand"
	"reflect"
	"testing"

	"hdidx/internal/par"
	"hdidx/internal/rtree"
)

// buildRandomTree makes a random-geometry tree for the property suite:
// dims 1–64, random page capacities, optional duplicated points (which
// force exact distance ties, including at the k-th radius).
func buildRandomTree(rng *rand.Rand) ([][]float64, *rtree.Tree) {
	dim := 1 + rng.Intn(64)
	n := 1 + rng.Intn(600)
	data := uniformPoints(n, dim, rng.Int63())
	if n > 4 && rng.Intn(2) == 0 {
		// Duplicate one point many times: with k below the copy count
		// the k-th radius is an exact tie across copies.
		src := data[rng.Intn(n)]
		for i := 0; i < 3+rng.Intn(8); i++ {
			dup := make([]float64, dim)
			copy(dup, src)
			data = append(data, dup)
		}
	}
	cp := make([][]float64, len(data))
	copy(cp, data)
	tr := rtree.Build(cp, rtree.BuildParams{
		LeafCap: float64(2 + rng.Intn(31)),
		DirCap:  float64(2 + rng.Intn(15)),
	})
	return data, tr
}

// TestKNNFlatMatchesPointerOracle is the bit-identity property suite of
// the tentpole: over random geometries (dims 1–64, duplicates, ties at
// the k-th radius, n below the fanout), the flat best-first search must
// agree with the pointer oracle on the radius (bitwise), the leaf and
// directory access counts, and the neighbor list.
func TestKNNFlatMatchesPointerOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		data, tr := buildRandomTree(rng)
		ft := tr.Flatten()
		k := 1 + rng.Intn(30)
		if k > len(data) {
			k = len(data)
		}
		for qi := 0; qi < 4; qi++ {
			var q []float64
			if qi%2 == 0 {
				q = data[rng.Intn(len(data))] // exact-tie-prone: a data point
			} else {
				q = uniformPoints(1, tr.Dim, rng.Int63())[0]
			}
			want := KNNSearch(tr, q, k)
			got := KNNSearchFlat(ft, q, k)
			if got.Radius != want.Radius {
				t.Fatalf("trial %d: radius %v != oracle %v", trial, got.Radius, want.Radius)
			}
			if got.LeafAccesses != want.LeafAccesses || got.DirAccesses != want.DirAccesses {
				t.Fatalf("trial %d: accesses %d/%d != oracle %d/%d", trial,
					got.LeafAccesses, got.DirAccesses, want.LeafAccesses, want.DirAccesses)
			}
			if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
				t.Fatalf("trial %d: neighbors diverge\n flat: %v\n tree: %v", trial, got.Neighbors, want.Neighbors)
			}
			if len(got.Neighbors) != k {
				t.Fatalf("trial %d: %d neighbors, want %d", trial, len(got.Neighbors), k)
			}
			if brute := KNNBruteRadius(data, q, k); got.Radius != brute {
				t.Fatalf("trial %d: radius %v != brute force %v", trial, got.Radius, brute)
			}
		}
	}
}

// TestMeasureKNNFlatMatchesPerQuery checks that the parallel radii-only
// measurement returns the same radii and access counts as individual
// neighbor-collecting searches.
func TestMeasureKNNFlatMatchesPerQuery(t *testing.T) {
	data := uniformPoints(3000, 6, 31)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 16, DirCap: 8})
	ft := tr.Flatten()
	queries := uniformPoints(40, 6, 32)
	k := 9
	batch := MeasureKNNFlat(ft, queries, k)
	for i, q := range queries {
		one := KNNSearchFlat(ft, q, k)
		if batch[i].Radius != one.Radius ||
			batch[i].LeafAccesses != one.LeafAccesses ||
			batch[i].DirAccesses != one.DirAccesses {
			t.Fatalf("query %d: batch %+v != single %+v", i, batch[i], one)
		}
		if batch[i].Neighbors != nil {
			t.Fatalf("query %d: radii-only measurement returned neighbors", i)
		}
	}
}

func TestMeasureLeafAccessesFlatMatchesTree(t *testing.T) {
	data := uniformPoints(2000, 5, 33)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 20, DirCap: 10})
	ft := tr.Flatten()
	queries := uniformPoints(25, 5, 34)
	spheres := ComputeSpheres(data, queries, 11)
	want := MeasureLeafAccesses(tr, spheres)
	got := MeasureLeafAccessesSetPool(ft.LeafRectSet(), spheres, par.Pool{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flat leaf accesses %v != tree %v", got, want)
	}
}

// bruteRangeCount is the reference for the range-search tests.
func bruteRangeCount(data [][]float64, s Sphere) int {
	n := 0
	r2 := s.Radius * s.Radius
	for _, p := range data {
		if sqDist(p, s.Center) <= r2 {
			n++
		}
	}
	return n
}

// checkRange runs one sphere through the pointer oracle, the flat
// search, and brute force, and asserts full agreement.
func checkRange(t *testing.T, data [][]float64, tr *rtree.Tree, ft *rtree.FlatTree, s Sphere) (int, Result) {
	t.Helper()
	want := bruteRangeCount(data, s)
	np, rp := RangeSearch(tr, s)
	nf, rf := RangeSearchFlat(ft, s)
	if np != want || nf != want {
		t.Fatalf("range count: pointer %d, flat %d, brute %d (radius %v)", np, nf, want, s.Radius)
	}
	if rp.LeafAccesses != rf.LeafAccesses || rp.DirAccesses != rf.DirAccesses {
		t.Fatalf("range accesses: pointer %d/%d, flat %d/%d (radius %v)",
			rp.LeafAccesses, rp.DirAccesses, rf.LeafAccesses, rf.DirAccesses, s.Radius)
	}
	return nf, rf
}

func TestRangeSearchEdgeCases(t *testing.T) {
	data := uniformPoints(1500, 4, 41)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 12, DirCap: 6})
	ft := tr.Flatten()

	// Zero radius at a data point: both paths find at least that point.
	n, _ := checkRange(t, data, tr, ft, Sphere{Center: data[7], Radius: 0})
	if n < 1 {
		t.Errorf("zero radius at data point found %d points", n)
	}
	// Zero radius away from every point: nothing.
	far := []float64{3, 3, 3, 3}
	if n, _ = checkRange(t, data, tr, ft, Sphere{Center: far, Radius: 0}); n != 0 {
		t.Errorf("zero radius at non-data point found %d points", n)
	}
	// A sphere containing the whole tree touches every point and every
	// page exactly once.
	center := []float64{0.5, 0.5, 0.5, 0.5}
	n, res := checkRange(t, data, tr, ft, Sphere{Center: center, Radius: 10})
	if n != tr.NumPoints {
		t.Errorf("enclosing sphere counted %d points, want %d", n, tr.NumPoints)
	}
	if res.LeafAccesses != tr.NumLeaves() {
		t.Errorf("enclosing sphere opened %d leaves, want %d", res.LeafAccesses, tr.NumLeaves())
	}
	if res.DirAccesses != tr.NumNodes()-tr.NumLeaves() {
		t.Errorf("enclosing sphere opened %d dir pages, want %d", res.DirAccesses, tr.NumNodes()-tr.NumLeaves())
	}
	// Random radii agree with brute force on both paths.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		q := uniformPoints(1, 4, rng.Int63())[0]
		checkRange(t, data, tr, ft, Sphere{Center: q, Radius: rng.Float64() * 0.8})
	}
}

func TestRangeSearchSingleLeafTree(t *testing.T) {
	data := uniformPoints(5, 3, 43)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 10, DirCap: 4})
	if tr.Height() != 1 {
		t.Fatalf("tree height %d, want a single leaf", tr.Height())
	}
	ft := tr.Flatten()
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 10; i++ {
		q := uniformPoints(1, 3, rng.Int63())[0]
		n, res := checkRange(t, data, tr, ft, Sphere{Center: q, Radius: rng.Float64()})
		if res.DirAccesses != 0 {
			t.Fatalf("single-leaf tree opened %d directory pages", res.DirAccesses)
		}
		_ = n
	}
	// The enclosing sphere opens the single leaf and finds all points.
	n, res := checkRange(t, data, tr, ft, Sphere{Center: data[0], Radius: 10})
	if n != 5 || res.LeafAccesses != 1 {
		t.Fatalf("enclosing sphere: %d points, %d leaves, want 5/1", n, res.LeafAccesses)
	}
}

// TestKNNFlatAllocs is the allocation-budget guard of the search body:
// the radii-only measurement search allocates nothing in steady state,
// the neighbor-returning search allocates at most twice per op (the
// neighbor slice itself, plus heap growth slack) — over one tree and
// over an eight-tree forest alike — and MeasureKNNPaged over a copying
// LeafSource allocates only its result slice once its row buffer is
// warm.
func TestKNNFlatAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	data := uniformPoints(5000, 8, 51)
	params := rtree.ParamsForGeometry(rtree.NewGeometry(8))
	ft := rtree.Build(data, params).Flatten()
	var forest []*rtree.FlatTree
	for _, pts := range shardSplit(data, 8) {
		forest = append(forest, rtree.Build(pts, params).Flatten())
	}
	queries := uniformPoints(16, 8, 52)
	i := 0
	for _, c := range []struct {
		name  string
		trees []*rtree.FlatTree
	}{{"one tree", []*rtree.FlatTree{ft}}, {"8-tree forest", forest}} {
		sc := &flatScratch{}
		for _, q := range queries {
			knnFlat(c.trees, nil, q, 21, true, sc) // size the scratch buffers
		}
		radiiOnly := testing.AllocsPerRun(100, func() {
			knnFlat(c.trees, nil, queries[i%len(queries)], 21, false, sc)
			i++
		})
		if radiiOnly != 0 {
			t.Errorf("%s: radii-only flat k-NN: %v allocs/op, want 0", c.name, radiiOnly)
		}
		withNeighbors := testing.AllocsPerRun(100, func() {
			knnFlat(c.trees, nil, queries[i%len(queries)], 21, true, sc)
			i++
		})
		if withNeighbors > 2 {
			t.Errorf("%s: neighbor-returning flat k-NN: %v allocs/op, want <= 2", c.name, withNeighbors)
		}
	}
	// Box the source once: converting the struct to the interface
	// allocates, where a *pager.Snapshot would not.
	var src LeafSource = MatrixSource{M: ft.Points}
	MeasureKNNPaged(ft, src, queries, 21) // warm the pooled row buffer
	paged := testing.AllocsPerRun(100, func() {
		MeasureKNNPaged(ft, src, queries[i%len(queries):i%len(queries)+1], 21)
		i++
	})
	if paged > 1 {
		t.Errorf("paged measurement over a copying source: %v allocs/op, want <= 1 (the result slice)", paged)
	}
	single := testing.AllocsPerRun(100, func() {
		KNNSearchFlat(ft, queries[i%len(queries)], 21)
		i++
	})
	if single > 2 {
		t.Errorf("KNNSearchFlat: %v allocs/op, want <= 2 (the neighbor slice)", single)
	}
}

// benchTree builds the benchmark fixture for one dimensionality.
func benchTree(b *testing.B, n, dim int) ([][]float64, *rtree.Tree, *rtree.FlatTree, [][]float64) {
	b.Helper()
	data := uniformPoints(n, dim, int64(dim))
	tr := rtree.Build(data, rtree.ParamsForGeometry(rtree.NewGeometry(dim)))
	return data, tr, tr.Flatten(), uniformPoints(100, dim, int64(dim)+1)
}

func benchmarkKNN(b *testing.B, dim int, flat bool) {
	_, tr, ft, queries := benchTree(b, 50000, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if flat {
			KNNSearchFlat(ft, q, 21)
		} else {
			KNNSearch(tr, q, 21)
		}
	}
}

func BenchmarkKNNPointer(b *testing.B) {
	b.Run("d16", func(b *testing.B) { benchmarkKNN(b, 16, false) })
	b.Run("d60", func(b *testing.B) { benchmarkKNN(b, 60, false) })
}

func BenchmarkKNNFlat(b *testing.B) {
	b.Run("d16", func(b *testing.B) { benchmarkKNN(b, 16, true) })
	b.Run("d60", func(b *testing.B) { benchmarkKNN(b, 60, true) })
}
