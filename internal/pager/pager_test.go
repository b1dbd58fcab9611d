package pager

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hdidx/internal/mbr"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
	"hdidx/internal/vec"
)

// uniform fills n points of the given dimensionality from rng.
func uniform(n, dim int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		out[i] = p
	}
	return out
}

func buildFlat(t *testing.T, n, dim int, seed int64) *rtree.FlatTree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := uniform(n, dim, rng)
	return rtree.Build(data, rtree.BuildParams{LeafCap: 16, DirCap: 8}).Flatten()
}

// equalTrees compares every exported field of two flat trees,
// including the rectangle corner columns.
func equalTrees(t *testing.T, got, want *rtree.FlatTree) {
	t.Helper()
	if got.Dim != want.Dim || got.Height != want.Height ||
		got.NumPoints != want.NumPoints || got.NumLeaves != want.NumLeaves {
		t.Fatalf("tree shape diverges: %+v vs %+v", got, want)
	}
	if !reflect.DeepEqual(got.ChildStart, want.ChildStart) ||
		!reflect.DeepEqual(got.ChildCount, want.ChildCount) ||
		!reflect.DeepEqual(got.PtStart, want.PtStart) ||
		!reflect.DeepEqual(got.PtCount, want.PtCount) {
		t.Fatal("node arrays diverge after round trip")
	}
	gl, gh := got.Rects.Corners()
	wl, wh := want.Rects.Corners()
	if !reflect.DeepEqual(gl, wl) || !reflect.DeepEqual(gh, wh) {
		t.Fatal("rectangle corners diverge after round trip")
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Fatal("point matrix diverges after round trip")
	}
}

// TestRoundTrip writes trees across dimensions and page sizes and
// reads them back, requiring every array bit-identical
// and search results over the reopened tree identical to the original.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		n, dim, page int
	}{
		{300, 4, 512},
		{300, 4, 8192},
		{1200, 16, 512},
		{1200, 16, 4096},
		{500, 60, 8192},
		{1, 3, 512}, // single point, single leaf
	}
	for i, c := range cases {
		ft := buildFlat(t, c.n, c.dim, int64(100+i))
		path := filepath.Join(dir, "snap")
		if _, err := WriteFile(path, ft, c.page); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("case %d: open: %v", i, err)
		}
		equalTrees(t, s.Tree(), ft)
		if s.PageBytes() != c.page {
			t.Fatalf("case %d: page size %d, want %d", i, s.PageBytes(), c.page)
		}
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
				t.Fatalf("case %d: search over reopened tree diverges", i)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("case %d: close: %v", i, err)
		}
	}
}

// TestRoundTripEmpty round-trips the empty snapshot the serving layer
// publishes before the first insert.
func TestRoundTripEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if _, err := WriteFile(path, &rtree.FlatTree{}, 512); err != nil {
		t.Fatalf("write: %v", err)
	}
	ft, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if ft.NumNodes() != 0 || ft.NumPoints != 0 {
		t.Fatalf("empty tree came back with %d nodes / %d points", ft.NumNodes(), ft.NumPoints)
	}
}

// TestPagedSearchOverFile is the end-to-end measured-I/O check: a
// search whose leaf rows come from real page reads must return results
// bit-identical to the in-memory search, and the counters must record
// the page traffic.
func TestPagedSearchOverFile(t *testing.T) {
	ft := buildFlat(t, 4000, 12, 7)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := WriteFile(path, ft, 4096); err != nil {
		t.Fatalf("write: %v", err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(8))
	queries := uniform(50, 12, rng)
	want := query.MeasureKNNFlat(ft, queries, 10)
	if got := query.MeasureKNNPaged(s.Tree(), s, queries, 10); !reflect.DeepEqual(want, got) {
		t.Fatal("paged search over the file diverges from in-memory search")
	}
	c := s.Counters()
	if c.Transfers == 0 || c.Seeks == 0 {
		t.Fatalf("no page traffic recorded: %+v", c)
	}
	if c.Transfers < c.Seeks {
		t.Fatalf("more seeks than transfers: %+v", c)
	}
	s.ResetCounters()
	if got := s.Counters(); got.Transfers != 0 || got.Seeks != 0 {
		t.Fatalf("counters not reset: %+v", got)
	}
}

// TestLeafRowsAccounting pins the ReadAt adjacency rule: re-reading
// the same page run and reading the next adjacent page are seek-free;
// jumping backwards seeks. (The backend is forced: every page touch is
// recharged per call, unlike the mmap backend's first-touch faults —
// see TestMmapFaultAccounting.)
func TestLeafRowsAccounting(t *testing.T) {
	// dim 64 at 512-byte pages: one row is exactly one page.
	ft := buildFlat(t, 256, 64, 9)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := WriteFile(path, ft, 512); err != nil {
		t.Fatalf("write: %v", err)
	}
	s, err := OpenWith(path, Options{Backend: BackendReadAt})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()

	var buf []float64
	rows := s.LeafRows(10, 11, buf)
	if want := ft.Points.Row(10); !reflect.DeepEqual(rows, want) {
		t.Fatal("LeafRows returned wrong row data")
	}
	c := s.Counters()
	if c.Seeks != 1 || c.Transfers != 1 {
		t.Fatalf("first read: %+v, want 1 seek / 1 transfer", c)
	}
	s.LeafRows(10, 11, rows) // same page: no seek
	s.LeafRows(11, 12, rows) // adjacent page: no seek
	c = s.Counters()
	if c.Seeks != 1 || c.Transfers != 3 {
		t.Fatalf("sequential reads: %+v, want 1 seek / 3 transfers", c)
	}
	s.LeafRows(0, 1, rows) // jump back: seek
	if c = s.Counters(); c.Seeks != 2 {
		t.Fatalf("backward read: %+v, want 2 seeks", c)
	}
	// A multi-row range decodes correctly across page boundaries.
	got := s.LeafRows(5, 20, nil)
	if want := ft.Points.Data[5*64 : 20*64]; !reflect.DeepEqual(got, want) {
		t.Fatal("multi-page LeafRows returned wrong data")
	}
}

// TestWriteFileAtomic checks that atomic publication replaces the
// previous snapshot, survives an existing stale tmp file, and leaves
// no tmp files behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	ft1 := buildFlat(t, 100, 4, 1)
	ft2 := buildFlat(t, 200, 4, 2)

	if _, err := WriteFileAtomic(path, ft1, 512); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	// A crashed previous writer's leftover must not break publication.
	stale := filepath.Join(dir, "snap.tmp-dead")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFileAtomic(path, ft2, 512); err != nil {
		t.Fatalf("second publish: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.NumPoints != 200 {
		t.Fatalf("loaded %d points, want the second snapshot's 200", got.NumPoints)
	}
	left, err := filepath.Glob(filepath.Join(dir, "snap.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("tmp files left behind: %v", left)
	}
}

// TestSyncDirReportsErrors pins the directory sync both atomic writers
// end with: it succeeds on a real directory and returns the open error
// for a missing one.
func TestSyncDirReportsErrors(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Fatalf("sync of %s: %v", dir, err)
	}
	if err := syncDir(filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("sync of a missing directory returned %v, want fs.ErrNotExist", err)
	}
}

// TestWriteDeterministic is the determinism property of publication:
// two independent bulk loads of the same points, flattened and written
// at the same page size, produce byte-identical snapshot files.
func TestWriteDeterministic(t *testing.T) {
	for _, c := range []struct{ n, dim, page int }{
		{1, 3, 512},
		{700, 8, 512},
		{2000, 60, 8192},
	} {
		data := uniform(c.n, c.dim, rand.New(rand.NewSource(int64(c.n))))
		write := func() []byte {
			cp := append([][]float64(nil), data...) // Build reorders its input
			ft := rtree.Build(cp, rtree.BuildParams{LeafCap: 16, DirCap: 8}).Flatten()
			var buf bytes.Buffer
			if _, err := Write(&buf, ft, c.page); err != nil {
				t.Fatalf("write: %v", err)
			}
			return buf.Bytes()
		}
		if a, b := write(), write(); !bytes.Equal(a, b) {
			t.Fatalf("n=%d dim=%d: two builds of the same points wrote different files", c.n, c.dim)
		}
	}
}

// TestWriteV1Layout pins the version-1 bytes: a hand-assembled
// three-point tree must serialize to exactly the file earlier builds
// wrote for it, so existing snapshots stay readable and rewrites stay
// byte-identical.
func TestWriteV1Layout(t *testing.T) {
	rects := mbr.NewRectSet([]mbr.Rect{
		{Lo: []float64{0, 0}, Hi: []float64{3, 2}},
		{Lo: []float64{0, 0}, Hi: []float64{1, 1}},
		{Lo: []float64{3, 2}, Hi: []float64{3, 2}},
	})
	pts := vec.Matrix{Data: []float64{0, 0, 1, 1, 3, 2}, N: 3, Dim: 2}
	ft, err := rtree.AssembleFlat(2, 2, 3, 2,
		[]int32{1, 0, 0}, []int32{2, 0, 0}, []int32{0, 0, 2}, []int32{0, 2, 1}, rects, pts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, ft, MinPageBytes); err != nil {
		t.Fatal(err)
	}
	const want = "a2b47b88079a7d166f91500d443e26b9c78aceb1bacb70f25ce882eef4446208"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("v1 file sha256 %s, want %s", got, want)
	}
}
