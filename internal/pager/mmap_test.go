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

// requireMmap skips on platforms without the mmap backend, and opens
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
	if s.Backend() != BackendMmap || !s.ZeroCopy() {
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
		if _, err := WriteFile(path, ft, c.page); err != nil {
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
// copies: the tree's point matrix and every LeafRows result alias the
// mapping, and LeafRows ignores its scratch buffer entirely.
func TestMmapZeroCopy(t *testing.T) {
	ft := buildFlat(t, 500, 8, 11)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := WriteFile(path, ft, 512); err != nil {
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
	buf := make([]float64, 8*16)
	poison := buf[0]
	rows := s.LeafRows(3, 7, buf)
	if !inMap(rows) {
		t.Fatal("LeafRows returned a copy, want a view into the mapping")
	}
	if &rows[0] != &mapped[3*8] {
		t.Fatal("LeafRows view does not alias the tree's point matrix")
	}
	if buf[0] != poison {
		t.Fatal("LeafRows wrote into the scratch buffer it must ignore")
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

// TestMmapFaultAccounting pins the fault-granular counter model: the
// first touch of a page is a seek-able transfer+miss, re-touches are
// hits, and ResetCounters makes the model cold again.
func TestMmapFaultAccounting(t *testing.T) {
	// dim 64 at 512-byte pages: one row is exactly one page.
	ft := buildFlat(t, 256, 64, 9)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := WriteFile(path, ft, 512); err != nil {
		t.Fatalf("write: %v", err)
	}
	s := openMmapT(t, path)
	defer s.Close()

	rows := s.LeafRows(10, 11, nil)
	if want := ft.Points.Row(10); !reflect.DeepEqual(rows, want) {
		t.Fatal("LeafRows returned wrong row data")
	}
	c := s.Counters()
	if c.Seeks != 1 || c.Transfers != 1 || c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("first touch: %+v, want 1 seek / 1 transfer / 1 miss", c)
	}
	s.LeafRows(10, 11, nil) // resident page: hit, no transfer
	c = s.Counters()
	if c.Transfers != 1 || c.Hits != 1 {
		t.Fatalf("re-touch: %+v, want 1 transfer / 1 hit", c)
	}
	s.LeafRows(11, 12, nil) // adjacent first touch: transfer, no seek
	c = s.Counters()
	if c.Seeks != 1 || c.Transfers != 2 {
		t.Fatalf("adjacent touch: %+v, want 1 seek / 2 transfers", c)
	}
	s.LeafRows(0, 1, nil) // backward first touch: seek
	c = s.Counters()
	if c.Seeks != 2 || c.Transfers != 3 {
		t.Fatalf("backward touch: %+v, want 2 seeks / 3 transfers", c)
	}
	s.ResetCounters() // cold again: the same page re-charges as a fault
	s.LeafRows(10, 11, nil)
	c = s.Counters()
	if c.Seeks != 1 || c.Transfers != 1 || c.Hits != 0 {
		t.Fatalf("after reset: %+v, want 1 seek / 1 transfer", c)
	}
	// A multi-row span: every page of the run charged exactly once.
	s.ResetCounters()
	s.LeafRows(5, 20, nil)
	c = s.Counters()
	if c.Transfers != 15 || c.Misses != 15 {
		t.Fatalf("span: %+v, want 15 transfers", c)
	}
	s.LeafRows(5, 20, nil)
	c = s.Counters()
	if c.Transfers != 15 || c.Hits != 15 {
		t.Fatalf("re-span: %+v, want 15 hits and no new transfers", c)
	}
}

// TestMmapPagedBitIdentity is the property test of the acceptance
// criterion: k-NN, range, and measure searches over the mapped tree and
// source must be bit-identical — radius, leaf and directory accesses,
// neighbor lists including k-th-radius ties — to both the ReadAt pager
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
		if _, err := WriteFile(path, ft, c.page); err != nil {
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
			// The ReadAt and mmap searches alternate on one goroutine, so
			// they share the pooled row buffer: adopting mapped rows as
			// that buffer would fault on the next ReadAt fetch.
			flat := query.KNNSearchFlat(ft, q, k)
			mapped := query.KNNSearchFlat(mm.Tree(), q, k)
			if !reflect.DeepEqual(mapped, flat) {
				t.Fatalf("n=%d dim=%d query %d: mapped k-NN diverges from flat", c.n, c.dim, qi)
			}
			flat.Neighbors = nil
			overRA := query.MeasureKNNPaged(ra.Tree(), ra, queries[qi:qi+1], k)[0]
			overMM := query.MeasureKNNPaged(mm.Tree(), mm, queries[qi:qi+1], k)[0]
			if !reflect.DeepEqual(overRA, flat) || !reflect.DeepEqual(overMM, flat) {
				t.Fatalf("n=%d dim=%d query %d: paged k-NN diverges from flat", c.n, c.dim, qi)
			}
			r := flat.Radius * (0.8 + 0.4*rng.Float64())
			wantN, wantRes := query.RangeSearchFlat(ft, query.Sphere{Center: q, Radius: r})
			gotN, gotRes := query.RangeSearchFlat(mm.Tree(), query.Sphere{Center: q, Radius: r})
			if gotN != wantN || !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("n=%d dim=%d query %d: mapped range diverges from flat", c.n, c.dim, qi)
			}
		}
		if c := mm.Counters(); c.Transfers == 0 {
			t.Fatalf("no faults recorded: %+v", c)
		}
		ra.Close()
		mm.Close()
	}
}

// TestMmapPoisonedResident proves searches over a mapped snapshot
// never consult another tree's resident arrays: the searches run with
// the original in-memory tree's matrix NaN-poisoned, using only the
// mapped tree and source, and still answer correctly.
func TestMmapPoisonedResident(t *testing.T) {
	ft := buildFlat(t, 1500, 10, 31)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := WriteFile(path, ft, 4096); err != nil {
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
	if got := query.MeasureKNNPaged(s.Tree(), s, queries, 5); !reflect.DeepEqual(got, want) {
		t.Fatal("paged search over the mapping disturbed by poisoned resident tree")
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

// TestBackendResolution pins Auto's choice, the env override, and the
// String/Parse vocabulary round-trip.
func TestBackendResolution(t *testing.T) {
	for _, b := range []Backend{BackendAuto, BackendReadAt, BackendMmap} {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	if _, err := ParseBackend("bogus"); err == nil {
		t.Fatal("ParseBackend accepted bogus input")
	}

	ft := buildFlat(t, 100, 4, 41)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := WriteFile(path, ft, 512); err != nil {
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

	t.Setenv(EnvBackend, "readat")
	if got := ResolveBackend(BackendAuto); got != BackendReadAt {
		t.Fatalf("ResolveBackend(Auto) under env override = %v", got)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatalf("open with env override: %v", err)
	}
	if s.Backend() != BackendReadAt {
		t.Fatalf("env override ignored: resolved to %v", s.Backend())
	}
	s.Close()
	t.Setenv(EnvBackend, "")

	// Load must stay resident regardless of platform or env: its tree
	// outlives the snapshot handle.
	tr, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if tr.NumPoints != 100 {
		t.Fatalf("loaded %d points", tr.NumPoints)
	}
	q := make([]float64, 4)
	if res := query.KNNSearchFlat(tr, q, 1); len(res.Neighbors) != 1 {
		t.Fatal("tree from Load unusable after close")
	}
}
