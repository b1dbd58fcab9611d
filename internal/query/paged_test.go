package query

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hdidx/internal/rtree"
)

// TestKNNPagedMatchesFlat is the bit-identity property suite of the
// pager read path: over the same random geometries as the flat suite
// (dims 1–64, duplicates, k-th-radius ties), the paged search fed by a
// MatrixSource must agree with the in-memory flat search on radius
// (bitwise), access counts, and neighbor lists.
func TestKNNPagedMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	for trial := 0; trial < 120; trial++ {
		data, tr := buildRandomTree(rng)
		ft := tr.Flatten()
		src := MatrixSource{M: ft.Points}
		k := 1 + rng.Intn(30)
		if k > len(data) {
			k = len(data)
		}
		for qi := 0; qi < 4; qi++ {
			var q []float64
			if qi%2 == 0 {
				q = data[rng.Intn(len(data))]
			} else {
				q = uniformPoints(1, tr.Dim, rng.Int63())[0]
			}
			want := KNNSearchFlat(ft, q, k)
			got := KNNSearchPaged(ft, src, q, k)
			if got.Radius != want.Radius {
				t.Fatalf("trial %d: radius %v != flat %v", trial, got.Radius, want.Radius)
			}
			if got.LeafAccesses != want.LeafAccesses || got.DirAccesses != want.DirAccesses {
				t.Fatalf("trial %d: accesses %d/%d != flat %d/%d", trial,
					got.LeafAccesses, got.DirAccesses, want.LeafAccesses, want.DirAccesses)
			}
			if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
				t.Fatalf("trial %d: neighbors diverge\n paged: %v\n flat: %v", trial, got.Neighbors, want.Neighbors)
			}
		}
	}
}

// TestKNNPagedNeverTouchesResidentPoints poisons the resident point
// matrix after handing a pristine copy to the source: if any part of
// the paged search read ft.Points instead of going through the
// LeafSource, the NaNs would corrupt distances and the search result.
func TestKNNPagedNeverTouchesResidentPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data, tr := buildRandomTree(rng)
	ft := tr.Flatten()
	want := KNNSearchFlat(ft, data[0], 5)
	// The flat search's neighbors are views into ft.Points, which is
	// about to be poisoned — snapshot them.
	for i, nb := range want.Neighbors {
		want.Neighbors[i] = append([]float64(nil), nb...)
	}

	pristine := make([]float64, len(ft.Points.Data))
	copy(pristine, ft.Points.Data)
	src := MatrixSource{M: ft.Points}
	src.M.Data = pristine
	for i := range ft.Points.Data {
		ft.Points.Data[i] = math.NaN()
	}
	got := KNNSearchPaged(ft, src, data[0], 5)
	if got.Radius != want.Radius || !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
		t.Fatalf("paged search read the poisoned resident matrix: radius %v want %v", got.Radius, want.Radius)
	}
	var cnt int
	cnt, _ = RangeSearchPaged(ft, src, Sphere{Center: data[0], Radius: want.Radius})
	if cnt < 5 {
		t.Fatalf("paged range search over the k-NN sphere found %d points, want >= 5", cnt)
	}
}

// TestKNNPagedNeighborsAreCopies asserts the aliasing contract: the
// paged search returns private neighbor copies, so mutating them must
// not disturb the source matrix (whose buffer a pager would anyway
// reuse).
func TestKNNPagedNeighborsAreCopies(t *testing.T) {
	data := uniformPoints(400, 8, 5)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 16, DirCap: 8})
	ft := tr.Flatten()
	src := MatrixSource{M: ft.Points}
	res := KNNSearchPaged(ft, src, data[3], 4)
	before := make([]float64, len(ft.Points.Data))
	copy(before, ft.Points.Data)
	for _, nb := range res.Neighbors {
		for i := range nb {
			nb[i] = -12345
		}
	}
	if !reflect.DeepEqual(before, ft.Points.Data) {
		t.Fatal("mutating returned neighbors changed the point matrix: rows were not copied")
	}
}

// TestRangeSearchPagedMatchesFlat checks count and access-count
// bit-identity of the paged range search against the in-memory one
// over random trees and spheres (including zero radius and a sphere
// enclosing everything).
func TestRangeSearchPagedMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(423))
	for trial := 0; trial < 80; trial++ {
		data, tr := buildRandomTree(rng)
		ft := tr.Flatten()
		src := MatrixSource{M: ft.Points}
		center := data[rng.Intn(len(data))]
		radius := rng.Float64()
		switch trial % 4 {
		case 1:
			radius = 0
		case 2:
			radius = 1000 // encloses the unit cube from anywhere inside it
		}
		wantN, want := RangeSearchFlat(ft, Sphere{Center: center, Radius: radius})
		gotN, got := RangeSearchPaged(ft, src, Sphere{Center: center, Radius: radius})
		if gotN != wantN || got.LeafAccesses != want.LeafAccesses || got.DirAccesses != want.DirAccesses {
			t.Fatalf("trial %d: paged range %d (%d/%d) != flat %d (%d/%d)", trial,
				gotN, got.LeafAccesses, got.DirAccesses, wantN, want.LeafAccesses, want.DirAccesses)
		}
	}
}

// TestMeasureKNNPagedMatchesFlat checks the radii-only batch variant
// against per-query searches.
func TestMeasureKNNPagedMatchesFlat(t *testing.T) {
	data := uniformPoints(2500, 6, 87)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 16, DirCap: 8})
	ft := tr.Flatten()
	src := MatrixSource{M: ft.Points}
	queries := uniformPoints(30, 6, 88)
	k := 7
	got := MeasureKNNPaged(ft, src, queries, k)
	for i, q := range queries {
		want := KNNSearchFlat(ft, q, k)
		if got[i].Radius != want.Radius || got[i].LeafAccesses != want.LeafAccesses ||
			got[i].DirAccesses != want.DirAccesses {
			t.Fatalf("query %d: paged measure diverges from flat search", i)
		}
	}
}
