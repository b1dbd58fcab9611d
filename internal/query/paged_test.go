package query

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hdidx/internal/rtree"
	"hdidx/internal/vec"
)

// MatrixSource adapts an in-memory point matrix to LeafSource. It
// copies rows into buf rather than returning views, mimicking a pager's
// reused read buffer.
type MatrixSource struct {
	M vec.Matrix
}

func (s MatrixSource) LeafRows(start, end int, buf []float64) []float64 {
	n := (end - start) * s.M.Dim
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	out := buf[:n]
	copy(out, s.M.Data[start*s.M.Dim:end*s.M.Dim])
	return out
}

// viewSource is a zero-copy LeafSource: it returns views into its
// matrix, like the pager's mmap backend.
type viewSource struct {
	M vec.Matrix
}

func (s viewSource) LeafRows(start, end int, _ []float64) []float64 {
	return s.M.Data[start*s.M.Dim : end*s.M.Dim]
}

func (viewSource) ZeroCopy() bool { return true }

// sameCounts reports whether two searches agree bitwise on radius and
// on leaf and directory access counts.
func sameCounts(a, b Result) bool {
	return a.Radius == b.Radius && a.LeafAccesses == b.LeafAccesses && a.DirAccesses == b.DirAccesses
}

// TestKNNPagedMatchesFlat is the bit-identity property suite of the
// pager read path: over the same random geometries as the flat suite
// (dims 1–64, duplicates, k-th-radius ties), the search fed by a
// copying MatrixSource or a zero-copy view source must agree with the
// resident KNNSearchFlat on radius (bitwise) and access counts.
func TestKNNPagedMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	for trial := 0; trial < 120; trial++ {
		data, tr := buildRandomTree(rng)
		ft := tr.Flatten()
		k := 1 + rng.Intn(30)
		if k > len(data) {
			k = len(data)
		}
		queries := make([][]float64, 4)
		for qi := range queries {
			if qi%2 == 0 {
				queries[qi] = data[rng.Intn(len(data))]
			} else {
				queries[qi] = uniformPoints(1, tr.Dim, rng.Int63())[0]
			}
		}
		copied := MeasureKNNPaged(ft, MatrixSource{M: ft.Points}, queries, k)
		viewed := MeasureKNNPaged(ft, viewSource{M: ft.Points}, queries, k)
		for qi, q := range queries {
			want := KNNSearchFlat(ft, q, k)
			if !sameCounts(copied[qi], want) || !sameCounts(viewed[qi], want) {
				t.Fatalf("trial %d query %d: paged %+v / %+v != flat %+v", trial, qi, copied[qi], viewed[qi], want)
			}
		}
	}
}

// TestKNNPagedNeverTouchesResidentPoints poisons the resident point
// matrix after handing a pristine copy to the source: if any part of
// the search read ft.Points instead of going through the LeafSource,
// the NaNs would drop every candidate and change the radius.
func TestKNNPagedNeverTouchesResidentPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data, tr := buildRandomTree(rng)
	ft := tr.Flatten()
	queries := [][]float64{data[0], uniformPoints(1, tr.Dim, 78)[0]}
	k := min(5, len(data))
	want := MeasureKNNFlat(ft, queries, k)

	pristine := make([]float64, len(ft.Points.Data))
	copy(pristine, ft.Points.Data)
	src := MatrixSource{M: ft.Points}
	src.M.Data = pristine
	for i := range ft.Points.Data {
		ft.Points.Data[i] = math.NaN()
	}
	got := MeasureKNNPaged(ft, src, queries, k)
	for i := range queries {
		if !sameCounts(got[i], want[i]) {
			t.Fatalf("query %d: paged search read the poisoned resident matrix: %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestKNNPagedZeroCopyRowsNotAdopted pins the scratch rule: rows a
// copying source returns become the scratch row buffer, but a zero-copy
// source's rows (read-only mapped memory, for the mmap pager) never do
// — a later copying fetch would write through them.
func TestKNNPagedZeroCopyRowsNotAdopted(t *testing.T) {
	data := uniformPoints(800, 6, 91)
	ft := rtree.Build(data, rtree.BuildParams{LeafCap: 16, DirCap: 8}).Flatten()
	sc := &flatScratch{}
	knnFlat([]*rtree.FlatTree{ft}, viewSource{M: ft.Points}, data[3], 7, false, sc)
	if cap(sc.rows) != 0 {
		t.Fatal("zero-copy rows were adopted as the scratch row buffer")
	}
	knnFlat([]*rtree.FlatTree{ft}, MatrixSource{M: ft.Points}, data[3], 7, false, sc)
	if cap(sc.rows) == 0 {
		t.Fatal("copying source rows were not adopted as the scratch row buffer")
	}
}

// TestMeasureKNNPagedMatchesFlat checks MeasureKNNPaged against the
// parallel resident MeasureKNNFlat over a fixed tree.
func TestMeasureKNNPagedMatchesFlat(t *testing.T) {
	data := uniformPoints(2500, 6, 87)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 16, DirCap: 8})
	ft := tr.Flatten()
	queries := uniformPoints(30, 6, 88)
	got := MeasureKNNPaged(ft, MatrixSource{M: ft.Points}, queries, 7)
	want := MeasureKNNFlat(ft, queries, 7)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged measure diverges from flat:\n paged: %+v\n flat:  %+v", got, want)
	}
}
