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
	"strings"
	"testing"
	"unsafe"

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

// readBackends lists the read paths this platform has: the resident
// ReadAt decode everywhere, the mapping where MmapSupported holds. Tests
// name them explicitly so both run under -race wherever mmap exists.
func readBackends() []Backend {
	if MmapSupported() {
		return []Backend{BackendReadAt, BackendMmap}
	}
	return []Backend{BackendReadAt}
}

// readPath is one way this host can read a snapshot: a backend, and
// whether its sections are decoded into fresh arrays (the branch a
// big-endian host takes) instead of viewed where the host allows.
type readPath struct {
	backend Backend
	decode  bool
}

func (p readPath) String() string {
	if p.decode {
		return fmt.Sprintf("%v/decoded", p.backend)
	}
	return fmt.Sprint(p.backend)
}

// readPaths lists every backend of readBackends, viewed and decoded.
func readPaths() []readPath {
	var ps []readPath
	for _, b := range readBackends() {
		ps = append(ps, readPath{b, false}, readPath{b, true})
	}
	return ps
}

// open opens path along p, forcing the decode branch for the call.
func (p readPath) open(path string) (*Snapshot, error) {
	defer func(was bool) { decodeViews = was }(decodeViews)
	decodeViews = decodeViews || p.decode
	return OpenWith(path, Options{Backend: p.backend})
}

// TestRoundTrip writes trees across dimensions and page sizes and
// reads them back through every read path, requiring every array
// bit-identical and search results over the reopened tree identical
// to the original.
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
		if _, err := WriteFileAtomic(path, ft, c.page); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		for _, b := range readBackends() {
			s, err := OpenWith(path, Options{Backend: b})
			if err != nil {
				t.Fatalf("case %d/%v: open: %v", i, b, err)
			}
			if s.Backend() != b {
				t.Fatalf("case %d/%v: opened as %v", i, b, s.Backend())
			}
			equalTrees(t, s.Tree(), ft)
			if s.PageBytes() != c.page {
				t.Fatalf("case %d/%v: page size %d, want %d", i, b, s.PageBytes(), c.page)
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
					t.Fatalf("case %d/%v: search over reopened tree diverges", i, b)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("case %d/%v: close: %v", i, b, err)
			}
		}
	}
}

// TestRoundTripEmpty round-trips the empty snapshot the serving layer
// publishes before the first insert, along every read path.
func TestRoundTripEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if _, err := WriteFileAtomic(path, &rtree.FlatTree{}, 512); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, p := range readPaths() {
		s, err := p.open(path)
		if err != nil {
			t.Fatalf("%v: open: %v", p, err)
		}
		if ft := s.Tree(); ft.NumNodes() != 0 || ft.NumPoints != 0 {
			t.Fatalf("%v: empty tree came back with %d nodes / %d points", p, ft.NumNodes(), ft.NumPoints)
		}
		s.Close()
	}
}

// TestOpenDecodeBranch runs the branch a big-endian host takes, where
// every section is decoded into fresh arrays, and requires the opened
// tree bit-identical to the viewed one: written back, each tree gives
// the file's bytes, which are its arrays verbatim. A viewed tree's
// arrays alias the file's bytes, so they must be 8-byte aligned; a
// decoded tree's must not alias them.
func TestOpenDecodeBranch(t *testing.T) {
	for _, c := range []struct{ n, dim, page int }{
		{300, 4, 512},
		{1200, 16, 4096},
		{500, 60, 8192},
		{1, 3, 512},
	} {
		ft := buildFlat(t, c.n, c.dim, int64(c.n))
		path := filepath.Join(t.TempDir(), "snap")
		if _, err := WriteFileAtomic(path, ft, c.page); err != nil {
			t.Fatalf("write: %v", err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range readPaths() {
			s, err := p.open(path)
			if err != nil {
				t.Fatalf("n=%d %v: open: %v", c.n, p, err)
			}
			var buf bytes.Buffer
			if _, err := Write(&buf, s.Tree(), c.page); err != nil {
				t.Fatalf("n=%d %v: rewrite: %v", c.n, p, err)
			}
			if !bytes.Equal(buf.Bytes(), raw) {
				t.Fatalf("n=%d %v: the opened tree does not write back the file it was read from", c.n, p)
			}
			lo, hi := s.Tree().Rects.Corners()
			for _, a := range []unsafe.Pointer{unsafe.Pointer(&s.Tree().ChildStart[0]), unsafe.Pointer(&lo[0]),
				unsafe.Pointer(&hi[0]), unsafe.Pointer(&s.Tree().Points.Data[0])} {
				if viewed := !p.decode && !decodeViews; viewed && uintptr(a)%8 != 0 {
					t.Fatalf("n=%d %v: a view at %#x is not 8-byte aligned", c.n, p, a)
				}
				if p.decode && s.mapped != nil {
					if base := uintptr(unsafe.Pointer(&s.mapped[0])); uintptr(a) >= base && uintptr(a) < base+uintptr(len(s.mapped)) {
						t.Fatalf("n=%d %v: a decoded array is a view into the mapping", c.n, p)
					}
				}
			}
			s.Close()
		}
	}
}

// TestOpenAutoFallback makes the map fail, through the seam over the
// mmap call, and pins what publication relies on: Auto reads the file
// instead and opens the same verified tree, an explicit BackendMmap
// returns ErrMmapUnavailable, and a corrupted file still fails on the
// fallback.
func TestOpenAutoFallback(t *testing.T) {
	ft := buildFlat(t, 600, 8, 51)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := WriteFileAtomic(path, ft, 512); err != nil {
		t.Fatalf("write: %v", err)
	}
	defer func(m func(*os.File, int64) ([]byte, error)) { mapFile = m }(mapFile)
	mapFile = func(*os.File, int64) ([]byte, error) {
		return nil, fmt.Errorf("%w: injected", ErrMmapUnavailable)
	}

	s, err := Open(path)
	if err != nil {
		t.Fatalf("auto open with a failing map: %v", err)
	}
	if s.Backend() != BackendReadAt || s.mapped != nil {
		t.Fatalf("auto open with a failing map came back as %v", s.Backend())
	}
	equalTrees(t, s.Tree(), ft)
	s.Close()

	if s, err := OpenWith(path, Options{Backend: BackendMmap}); !errors.Is(err, ErrMmapUnavailable) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("explicit mmap open with a failing map returned %v, want ErrMmapUnavailable", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(raw[:headerBytes])
	if err != nil {
		t.Fatal(err)
	}
	raw[h.sections[len(h.sections)-1].offset] ^= 0x01 // the first byte of the points
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		if err == nil {
			s.Close()
		}
		t.Fatalf("auto open of a corrupted file with a failing map returned %v, want a checksum error", err)
	}
}

// TestPagedSearchOverFile is the end-to-end check over a real file: a
// search over the tree each read path opens — decoded into resident
// arrays, or mapped — must return results bit-identical to the
// in-memory search.
func TestPagedSearchOverFile(t *testing.T) {
	ft := buildFlat(t, 4000, 12, 7)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := WriteFileAtomic(path, ft, 4096); err != nil {
		t.Fatalf("write: %v", err)
	}
	rng := rand.New(rand.NewSource(8))
	queries := uniform(50, 12, rng)
	want := query.MeasureKNNFlat(ft, queries, 10)
	for _, b := range readBackends() {
		s, err := OpenWith(path, Options{Backend: b})
		if err != nil {
			t.Fatalf("%v: open: %v", b, err)
		}
		if got := query.MeasureKNNFlat(s.Tree(), queries, 10); !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: search over the file diverges from in-memory search", b)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%v: close: %v", b, err)
		}
	}
}

// TestLeafRowsAccounting checks the page accounting of the resident
// (ReadAt) snapshot: the pages a leaf read transfers are the span
// LeafPages returns, and that span is where the leaf's rows lie in the
// file.
func TestLeafRowsAccounting(t *testing.T) {
	checkLeafPages(t, BackendReadAt, nil)
}

// checkLeafPages checks the layout function of snapshots opened with
// backend b against the file's bytes, at page sizes that leaves span
// several pages of and that rows straddle, and at one row per page.
// For every leaf the returned pages must be the pages holding the first
// and last byte of the leaf's rows, located through the header's
// section table, and decoding the file there must give back the leaf's
// rows. Directory nodes span no pages, and each leaf's span starts on
// the previous leaf's last page or the one after it, so a workload's
// spans come out ascending. onLeaf, if not nil, is called with each
// leaf and the file offset of its first row.
func checkLeafPages(t *testing.T, b Backend, onLeaf func(s *Snapshot, node int, lo int64)) {
	t.Helper()
	for _, c := range []struct {
		n, dim, page int
	}{
		{1500, 12, 512},
		{256, 64, 512},
		{1200, 20, 4096},
		{900, 60, 8192},
	} {
		ft := buildFlat(t, c.n, c.dim, int64(c.page))
		path := filepath.Join(t.TempDir(), "snap")
		if _, err := WriteFileAtomic(path, ft, c.page); err != nil {
			t.Fatalf("write: %v", err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		h, err := decodeHeader(raw[:headerBytes])
		if err != nil {
			t.Fatalf("header: %v", err)
		}
		var pointsOff int64
		for _, sec := range h.sections {
			if sec.kind == secPoints {
				pointsOff = sec.offset
			}
		}
		row := int64(c.dim) * 8
		pb := int64(c.page)
		s, err := OpenWith(path, Options{Backend: b})
		if err != nil {
			t.Fatalf("%v: open: %v", b, err)
		}
		tr, spanned, prevLast := s.Tree(), 0, int64(-1)
		for node := 0; node < tr.NumNodes(); node++ {
			first, last := s.LeafPages(node)
			if tr.ChildCount[node] != 0 {
				if last != first-1 {
					t.Fatalf("page=%d %v: directory node %d spans pages [%d, %d]", c.page, b, node, first, last)
				}
				continue
			}
			lo := pointsOff + int64(tr.PtStart[node])*row
			hi := lo + int64(tr.PtCount[node])*row
			if first != lo/pb || last != (hi-1)/pb {
				t.Fatalf("page=%d %v: leaf %d bytes [%d, %d) lie on pages [%d, %d], LeafPages says [%d, %d]",
					c.page, b, node, lo, hi, lo/pb, (hi-1)/pb, first, last)
			}
			if prevLast >= 0 && first != prevLast && first != prevLast+1 {
				t.Fatalf("page=%d %v: leaf %d starts on page %d, the previous leaf ends on page %d",
					c.page, b, node, first, prevLast)
			}
			prevLast = last
			want := ft.Points.Data[int64(ft.PtStart[node])*int64(c.dim) : int64(ft.PtStart[node]+ft.PtCount[node])*int64(c.dim)]
			if got := viewFloat64s(raw[lo:hi]); !reflect.DeepEqual(got, want) {
				t.Fatalf("page=%d %v: file bytes at leaf %d's offset decode to other rows", c.page, b, node)
			}
			if onLeaf != nil {
				onLeaf(s, node, lo)
			}
			if last > first {
				spanned++
			}
		}
		if spanned == 0 {
			t.Fatalf("page=%d: no leaf spans more than one page", c.page)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%v: close: %v", b, err)
		}
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
	got, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if n := got.Tree().NumPoints; n != 200 {
		t.Fatalf("opened %d points, want the second snapshot's 200", n)
	}
	got.Close()
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
			ft := rtree.Build(data, rtree.BuildParams{LeafCap: 16, DirCap: 8}).Flatten()
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
