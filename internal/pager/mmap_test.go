package pager

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"hdidx/internal/query"
)

// openMmapT skips on platforms without the mmap backend, and opens
// path with it forced.
func openMmapT(t *testing.T, path string) *Snapshot {
	t.Helper()
	if !MmapSupported() {
		t.Skip("mmap backend unsupported on this platform")
	}
	s, err := OpenWith(path, Options{Backend: BackendMmap})
	if err != nil {
		t.Fatalf("open mmap: %v", err)
	}
	if s.Backend() != BackendMmap {
		t.Fatalf("forced mmap open came back as %v", s.Backend())
	}
	return s
}

// TestMmapRoundTrip reopens trees through the mapped backend and
// requires every array bit-identical to the tree that was written —
// the directory arrays included, which are served straight from the
// map, never materialized.
func TestMmapRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		n, dim, page int
	}{
		{300, 4, 512},
		{1200, 16, 4096},
		{500, 60, 8192},
		{1, 3, 512},
	}
	for i, c := range cases {
		ft := buildFlat(t, c.n, c.dim, int64(300+i))
		path := filepath.Join(dir, "snap")
		if _, err := WriteFileAtomic(path, ft, c.page); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		s := openMmapT(t, path)
		equalTrees(t, s.Tree(), ft)
		rng := rand.New(rand.NewSource(int64(i)))
		for qi := 0; qi < 5; qi++ {
			q := uniform(1, c.dim, rng)[0]
			k := 1 + rng.Intn(10)
			if k > c.n {
				k = c.n
			}
			want := query.KNNSearchFlat(ft, q, k)
			got := query.KNNSearchFlat(s.Tree(), q, k)
			if want.Radius != got.Radius || want.LeafAccesses != got.LeafAccesses ||
				!reflect.DeepEqual(want.Neighbors, got.Neighbors) {
				t.Fatalf("case %d: search over mapped tree diverges", i)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("case %d: close: %v", i, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("case %d: second close not idempotent: %v", i, err)
		}
	}
}

// TestMmapZeroCopy proves the mapped snapshot serves views, not
// copies: the tree's point matrix and directory arrays alias the
// mapping.
func TestMmapZeroCopy(t *testing.T) {
	ft := buildFlat(t, 500, 8, 11)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := WriteFileAtomic(path, ft, 512); err != nil {
		t.Fatalf("write: %v", err)
	}
	s := openMmapT(t, path)
	defer s.Close()

	mapped := s.Tree().Points.Data
	base := uintptr(unsafe.Pointer(&s.mapped[0]))
	end := base + uintptr(len(s.mapped))
	inMap := func(f []float64) bool {
		p := uintptr(unsafe.Pointer(&f[0]))
		return p >= base && p < end
	}
	if !inMap(mapped) {
		t.Fatal("tree point matrix is not a view into the mapping")
	}
	// Directory arrays come straight from the map too.
	cs := s.Tree().ChildStart
	if p := uintptr(unsafe.Pointer(&cs[0])); p < base || p >= end {
		t.Fatal("ChildStart is not a view into the mapping")
	}
	lo, _ := s.Tree().Rects.Corners()
	if !inMap(lo) {
		t.Fatal("RectSet corners are not views into the mapping")
	}
}

// TestMmapFaultAccounting checks the page accounting of the mapped
// snapshot: LeafPages holds on the mapping, and each leaf's rows in the
// mapped tree are a view at exactly the file offset its span is
// computed from, so the pages a first touch of those rows faults in
// are the span.
func TestMmapFaultAccounting(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap backend unsupported on this platform")
	}
	checkLeafPages(t, BackendMmap, func(s *Snapshot, node int, lo int64) {
		tr := s.Tree()
		rows := tr.Points.Data[int64(tr.PtStart[node])*int64(tr.Dim):]
		if got, want := uintptr(unsafe.Pointer(&rows[0])), uintptr(unsafe.Pointer(&s.mapped[lo])); got != want {
			t.Fatalf("leaf %d's rows are mapped at file offset %d, its span is computed from offset %d",
				node, int64(got)-int64(uintptr(unsafe.Pointer(&s.mapped[0]))), lo)
		}
	})
}

// TestMmapPagedBitIdentity is the property test of the acceptance
// criterion: k-NN, range, and measure searches over the mapped tree
// must be bit-identical — radius, leaf and directory accesses, neighbor
// lists including k-th-radius ties — to both the decoded ReadAt tree
// and the in-memory flat path.
func TestMmapPagedBitIdentity(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap backend unsupported on this platform")
	}
	for _, c := range []struct {
		n, dim, page int
		seed         int64
	}{
		{3000, 12, 4096, 21},
		{2000, 16, 512, 22},
		{900, 60, 8192, 23},
	} {
		ft := buildFlat(t, c.n, c.dim, c.seed)
		path := filepath.Join(t.TempDir(), "snap")
		if _, err := WriteFileAtomic(path, ft, c.page); err != nil {
			t.Fatalf("write: %v", err)
		}
		ra, err := OpenWith(path, Options{Backend: BackendReadAt})
		if err != nil {
			t.Fatalf("open readat: %v", err)
		}
		mm := openMmapT(t, path)

		// Duplicate some points so k-th-radius ties exist in the data.
		rng := rand.New(rand.NewSource(c.seed))
		queries := uniform(40, c.dim, rng)
		for qi, q := range queries {
			k := 1 + rng.Intn(20)
			if k > c.n {
				k = c.n
			}
			flat := query.KNNSearchFlat(ft, q, k)
			mapped := query.KNNSearchFlat(mm.Tree(), q, k)
			decoded := query.KNNSearchFlat(ra.Tree(), q, k)
			if !reflect.DeepEqual(mapped, flat) || !reflect.DeepEqual(decoded, flat) {
				t.Fatalf("n=%d dim=%d query %d: k-NN over the opened file diverges from flat", c.n, c.dim, qi)
			}
			flat.Neighbors = nil
			overRA := query.MeasureKNNFlat(ra.Tree(), queries[qi:qi+1], k)[0]
			overMM := query.MeasureKNNFlat(mm.Tree(), queries[qi:qi+1], k)[0]
			if !reflect.DeepEqual(overRA, flat) || !reflect.DeepEqual(overMM, flat) {
				t.Fatalf("n=%d dim=%d query %d: measured k-NN over the opened file diverges from flat", c.n, c.dim, qi)
			}
			r := flat.Radius * (0.8 + 0.4*rng.Float64())
			wantN, wantRes := query.RangeSearchFlat(ft, query.Sphere{Center: q, Radius: r})
			gotN, gotRes := query.RangeSearchFlat(mm.Tree(), query.Sphere{Center: q, Radius: r})
			if gotN != wantN || !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("n=%d dim=%d query %d: mapped range diverges from flat", c.n, c.dim, qi)
			}
		}
		ra.Close()
		mm.Close()
	}
}

// TestMmapPoisonedResident proves searches over a mapped snapshot
// never consult another tree's resident arrays: the searches run with
// the original in-memory tree's matrix NaN-poisoned, using only the
// mapped tree, and still answer correctly.
func TestMmapPoisonedResident(t *testing.T) {
	ft := buildFlat(t, 1500, 10, 31)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := WriteFileAtomic(path, ft, 4096); err != nil {
		t.Fatalf("write: %v", err)
	}
	rng := rand.New(rand.NewSource(32))
	queries := uniform(20, 10, rng)
	want := make([]query.Result, len(queries))
	for i, q := range queries {
		want[i] = query.KNNSearchFlat(ft, q, 5)
		want[i].Neighbors = nil
	}

	s := openMmapT(t, path)
	defer s.Close()
	// Poison the resident source tree the file was written from.
	for i := range ft.Points.Data {
		ft.Points.Data[i] = math.NaN()
	}
	if got := query.MeasureKNNFlat(s.Tree(), queries, 5); !reflect.DeepEqual(got, want) {
		t.Fatal("measured search over the mapping disturbed by poisoned resident tree")
	}
	for i, q := range queries {
		got := query.KNNSearchFlat(s.Tree(), q, 5)
		if got.Radius != want[i].Radius || len(got.Neighbors) != 5 {
			t.Fatalf("query %d: mapped search disturbed by poisoned resident tree", i)
		}
		for _, nb := range got.Neighbors {
			for _, v := range nb {
				if math.IsNaN(v) {
					t.Fatalf("query %d: neighbor row read from the poisoned resident tree", i)
				}
			}
		}
	}
}

// TestBackendResolution pins Auto's platform choice, and that a tree
// read from the file stays usable after Close.
func TestBackendResolution(t *testing.T) {
	ft := buildFlat(t, 100, 4, 41)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := WriteFileAtomic(path, ft, 512); err != nil {
		t.Fatalf("write: %v", err)
	}
	s, err := Open(path) // Auto
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	wantAuto := BackendReadAt
	if MmapSupported() {
		wantAuto = BackendMmap
	}
	if s.Backend() != wantAuto {
		t.Fatalf("auto resolved to %v, want %v", s.Backend(), wantAuto)
	}
	s.Close()

	if got := ResolveBackend(BackendAuto); got != wantAuto {
		t.Fatalf("ResolveBackend(Auto) = %v, want %v", got, wantAuto)
	}
	if got := ResolveBackend(BackendReadAt); got != BackendReadAt {
		t.Fatalf("ResolveBackend(ReadAt) = %v", got)
	}

	// The read path's tree lives on the heap: it outlives the handle.
	s, err = OpenWith(path, Options{Backend: BackendReadAt})
	if err != nil {
		t.Fatalf("open readat: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close readat: %v", err)
	}
	tr := s.Tree()
	if tr.NumPoints != 100 {
		t.Fatalf("read %d points", tr.NumPoints)
	}
	q := make([]float64, 4)
	if res := query.KNNSearchFlat(tr, q, 1); len(res.Neighbors) != 1 {
		t.Fatal("tree read from the file unusable after close")
	}
}
