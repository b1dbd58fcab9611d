package pager

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"hdidx/internal/mbr"
	"hdidx/internal/rtree"
	"hdidx/internal/vec"
)

// Snapshot is an open snapshot file. Open verifies the whole file
// (header, every section checksum, every structural invariant) before
// returning. The file's bytes come from one of two places, per the
// Backend, and the tree's arrays are views into them:
//
// With BackendReadAt the whole file is read into one heap buffer at
// Open and the file is closed. Tree() stays valid after Close.
//
// With BackendMmap the tree is served zero-copy from a read-only
// mapping of the file: Tree()'s arrays are views into the map, valid
// only until Close (which unmaps).
//
// Either way LeafPages maps a leaf to the file pages its rows occupy,
// so the page I/O a workload costs is arithmetic on the file layout.
// A Snapshot is immutable and safe for concurrent use.
type Snapshot struct {
	h       *header
	tree    *rtree.FlatTree
	backend Backend

	// mapped is the whole-file mapping (mmap backend only).
	mapped []byte

	// pointsOff/pointsLen locate the points section in the file.
	pointsOff int64
	pointsLen int64

	closeOnce sync.Once
	closeErr  error
}

// Options configures OpenWith.
type Options struct {
	// Backend selects the read path; see the Backend constants. The
	// zero value is BackendAuto.
	Backend Backend
}

// Open opens and fully verifies a snapshot file with BackendAuto. Any
// corruption — truncation, bit flips in the header or any section,
// version skew, or a foreign file — is reported as an error; Open
// never panics on bad bytes and never returns a tree that could panic
// a later search.
func Open(path string) (*Snapshot, error) { return OpenWith(path, Options{}) }

// OpenWith is Open with an explicit backend choice. BackendAuto picks
// mmap where supported and falls back to ReadAt when the map cannot be
// established; an explicit BackendMmap fails with ErrMmapUnavailable
// instead of falling back.
func OpenWith(path string, opts Options) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Either backend is done with the descriptor once open returns: the
	// file was read into memory or mapped, and a mapping outlives its
	// descriptor, so a long-lived snapshot costs at most one mapping and
	// no fd.
	s, err := open(f, opts)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	return s, nil
}

func open(f *os.File, opts Options) (*Snapshot, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	// Explicit size gates before any read: a zero-length or sub-header
	// file is a clean, descriptive error — never an io.EOF surprise
	// from a short read.
	if size == 0 {
		return nil, fmt.Errorf("empty file: not a snapshot")
	}
	if size < int64(headerBytes) {
		// A shard manifest is smaller than a snapshot header; sniff its
		// magic so cross-format confusion names the format instead of
		// reporting a bare size mismatch.
		if size >= 4 {
			var magic [4]byte
			if _, err := f.ReadAt(magic[:], 0); err == nil && string(magic[:]) == ManifestMagic {
				return nil, fmt.Errorf("file is a shard manifest (magic %q), not a snapshot — open it with ReadManifest", ManifestMagic)
			}
		}
		return nil, fmt.Errorf("file too short for a snapshot header (%d bytes, need %d)", size, headerBytes)
	}
	hdrBuf := make([]byte, headerBytes)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), hdrBuf); err != nil {
		return nil, fmt.Errorf("reading snapshot header: %v", err)
	}
	h, err := decodeHeader(hdrBuf)
	if err != nil {
		return nil, err
	}
	pb := int64(h.pageBytes)
	if size%pb != 0 {
		return nil, fmt.Errorf("truncated file: %d bytes is not a multiple of the %d-byte page", size, pb)
	}

	// A retired prefilter section gets its own error, so such a file is
	// named for what it is rather than reported as malformed.
	for _, sec := range h.sections {
		if sec.kind == secRetiredCodes || sec.kind == secRetiredMarks {
			return nil, fmt.Errorf("section kind %d: %w", sec.kind, ErrRetiredFormat)
		}
	}
	// The section table must list exactly the expected kinds in order,
	// with the expected lengths, laid out back to back on page
	// boundaries. Checking lengths against the header counts up front
	// means a truncated or resized section is caught before any decode.
	wantKinds := []uint32{secChildStart, secChildCount, secPtStart, secPtCount,
		secRectLo, secRectHi, secPoints}
	if len(h.sections) != len(wantKinds) {
		return nil, fmt.Errorf("%d sections, want %d", len(h.sections), len(wantKinds))
	}
	wantLen := func(kind uint32) int64 {
		switch kind {
		case secChildStart, secChildCount, secPtStart, secPtCount:
			return int64(h.numNodes) * 4
		case secRectLo, secRectHi:
			return int64(h.numNodes) * int64(h.dim) * 8
		case secPoints:
			return int64(h.numPoints) * int64(h.dim) * 8
		}
		return -1
	}
	offset := pb
	for i, sec := range h.sections {
		if sec.kind != wantKinds[i] {
			return nil, fmt.Errorf("section %d has kind %d, want %d", i, sec.kind, wantKinds[i])
		}
		if want := wantLen(sec.kind); sec.length != want {
			return nil, fmt.Errorf("section %d (kind %d) is %d bytes, header counts imply %d",
				i, sec.kind, sec.length, want)
		}
		if sec.offset != offset {
			return nil, fmt.Errorf("section %d (kind %d) at offset %d, want %d", i, sec.kind, sec.offset, offset)
		}
		offset += pagePad(sec.length, h.pageBytes)
		if offset > size {
			return nil, fmt.Errorf("truncated file: section %d (kind %d) ends at %d of %d bytes",
				i, sec.kind, offset, size)
		}
	}

	// The file's bytes come from the read-only mapping or from one read
	// of the whole file into a heap buffer; one body then verifies and
	// views them.
	backend := ResolveBackend(opts.Backend)
	var data []byte
	if backend == BackendMmap {
		data, err = mapFile(f, size)
		if errors.Is(err, ErrMmapUnavailable) && opts.Backend == BackendAuto {
			err = nil // the map could not be established: read the file
		}
		if err != nil {
			return nil, err
		}
	}
	if data == nil {
		backend = BackendReadAt
		// One allocation of at least MinPageBytes (size is a whole number
		// of pages): the Go allocator places it at least 8-byte aligned,
		// and every section starts on a page boundary of it, so the views
		// below are as aligned as they are over the page-aligned mapping.
		data = make([]byte, size)
		if _, err := f.ReadAt(data, 0); err != nil {
			return nil, fmt.Errorf("reading snapshot: %v", err)
		}
	}
	s, err := assemble(data, h)
	if err != nil {
		if backend == BackendMmap {
			munmapFile(data)
		}
		return nil, err
	}
	s.backend = backend
	if backend == BackendMmap {
		s.mapped = data
		adviseMapping(data, h.pageBytes, s.pointsOff, s.pointsLen)
	}
	return s, nil
}

// assemble checks every section's checksum over data, the whole file,
// views each section in place, and hands the arrays to AssembleFlat for
// the structural invariants. The tree's arrays alias data (or, where
// decodeViews holds, are decoded from it).
func assemble(data []byte, h *header) (*Snapshot, error) {
	var (
		i32s                 [4][]int32
		rectLo, rectHi       []float64
		points               []float64
		pointsOff, pointsLen int64
	)
	for i, sec := range h.sections {
		b := data[sec.offset : sec.offset+sec.length]
		if got := crc32.Checksum(b, castagnoli); got != sec.crc {
			return nil, fmt.Errorf("section kind %d checksum mismatch (got %08x, want %08x)",
				sec.kind, got, sec.crc)
		}
		switch {
		case i < 4:
			i32s[i] = viewInt32s(b)
		case sec.kind == secRectLo:
			rectLo = viewFloat64s(b)
		case sec.kind == secRectHi:
			rectHi = viewFloat64s(b)
		case sec.kind == secPoints:
			points = viewFloat64s(b)
			pointsOff, pointsLen = sec.offset, sec.length
		}
	}
	rects, err := assembleRects(rectLo, rectHi, h.numNodes, h.dim)
	if err != nil {
		return nil, err
	}
	mat := vec.Matrix{Data: points, N: h.numPoints, Dim: h.dim}
	tree, err := rtree.AssembleFlat(h.dim, h.height, h.numPoints, h.numLeaves,
		i32s[0], i32s[1], i32s[2], i32s[3], rects, mat)
	if err != nil {
		return nil, err
	}
	return &Snapshot{h: h, tree: tree, pointsOff: pointsOff, pointsLen: pointsLen}, nil
}

// assembleRects rebuilds the RectSet from its corner columns,
// validating lengths (the mbr constructor panics on mismatch, and
// these bytes are untrusted).
func assembleRects(lo, hi []float64, n, dim int) (*mbr.RectSet, error) {
	if n == 0 {
		if len(lo) != 0 || len(hi) != 0 {
			return nil, fmt.Errorf("rectangle corners present for an empty tree")
		}
		return mbr.RectSetFromCorners(nil, nil, 0, 0), nil
	}
	if len(lo) != n*dim || len(hi) != n*dim {
		return nil, fmt.Errorf("rectangle corner columns of %d/%d values for %d nodes of dimension %d",
			len(lo), len(hi), n, dim)
	}
	return mbr.RectSetFromCorners(lo, hi, n, dim), nil
}

// Tree returns the verified FlatTree. With BackendReadAt its arrays
// live on the heap and remain valid after Close; with BackendMmap they
// are views into the mapping and must not be used after Close unmaps
// them.
func (s *Snapshot) Tree() *rtree.FlatTree { return s.tree }

// Backend returns the read path this snapshot was opened with (never
// BackendAuto — Open resolves the choice).
func (s *Snapshot) Backend() Backend { return s.backend }

// PageBytes returns the page size the file was written with.
func (s *Snapshot) PageBytes() int { return s.h.pageBytes }

// Pages returns the total number of pages in the file occupied by the
// points section — the quantity the paper's leaf-access predictions
// are ultimately priced against.
func (s *Snapshot) Pages() int64 { return pagePad(s.pointsLen, s.h.pageBytes) / int64(s.h.pageBytes) }

// LeafPages returns the first and last file page holding the rows of
// node: the pages a reader of that leaf transfers. A node without rows
// (a directory node, or an empty leaf) spans no pages: last is then
// first-1. It is O(1) arithmetic on the row range, the row width and
// the page size; nothing is read.
func (s *Snapshot) LeafPages(node int) (first, last int64) {
	row := int64(s.h.dim) * 8
	off := s.pointsOff + int64(s.tree.PtStart[node])*row
	pb := int64(s.h.pageBytes)
	first = off / pb
	if s.tree.PtCount[node] == 0 {
		return first, first - 1
	}
	return first, (off + int64(s.tree.PtCount[node])*row - 1) / pb
}

// Close releases the snapshot's resources, exactly once (further calls
// return the first result). With BackendReadAt there is nothing to
// release: the tree stays usable. With BackendMmap it unmaps
// the file — the tree and every row view become invalid, so Close must
// happen strictly after the last reader is done (the serving layer
// ties it to the snapshot-retire protocol).
func (s *Snapshot) Close() error {
	s.closeOnce.Do(func() {
		if s.mapped != nil {
			s.closeErr = munmapFile(s.mapped)
			s.mapped = nil
		}
	})
	return s.closeErr
}
