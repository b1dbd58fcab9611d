package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"hdidx/internal/disk"
	"hdidx/internal/mbr"
	"hdidx/internal/rtree"
	"hdidx/internal/vec"
)

// Snapshot is an open snapshot file. Open verifies the whole file
// (header, every section checksum, every structural invariant) before
// returning; how the tree is then served depends on the Backend.
//
// With BackendReadAt (the original pager) the tree is resident:
// Tree() is a heap copy that stays valid after Close, and LeafRows
// fetches leaf point rows with real page-granular ReadAt calls
// against the points section, counting seeks and transfers with the
// same adjacency rule as the simulated disk (internal/disk).
//
// With BackendMmap the tree is served zero-copy from a read-only
// mapping of the file: Tree()'s arrays and every slice LeafRows
// returns are views into the map, valid only until Close (which
// unmaps), and page touches are counted at fault granularity — the
// first touch of each points page since ResetCounters is a
// transfer+miss, later touches are hits.
//
// Either way the counters let experiments compare the paper's
// *predicted* leaf accesses against page I/O *measured* on a real
// filesystem. A Snapshot is safe for concurrent use.
type Snapshot struct {
	f       *os.File // nil for the mmap backend (the mapping outlives the fd)
	path    string
	h       *header
	tree    *rtree.FlatTree
	backend Backend

	// mapped is the whole-file mapping and points its zero-copy
	// points-section view (mmap backend only).
	mapped []byte
	points []float64

	// pointsOff/pointsLen locate the points section in the file.
	pointsOff int64
	pointsLen int64

	mu       sync.Mutex
	counters disk.Counters
	lastPage int64 // last page touched (ReadAt) or faulted (mmap); -1 = none

	// faulted is the touched-page bitmap over the points section's
	// pages (mmap backend): a set bit means the page was charged as a
	// fault since the last ResetCounters.
	faulted []uint64

	closeOnce sync.Once
	closeErr  error

	bufPool sync.Pool // *[]byte page-run scratch for ReadAt LeafRows
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
	s, err := open(f, path, opts)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	if s.backend == BackendMmap {
		// The mapping outlives the descriptor; holding no fd means a
		// long-lived served snapshot costs one mapping, zero handles.
		f.Close()
		s.f = nil
	}
	return s, nil
}

func open(f *os.File, path string, opts Options) (*Snapshot, error) {
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

	if ResolveBackend(opts.Backend) == BackendMmap {
		s, merr := openMmap(f, path, h, size)
		switch {
		case merr == nil:
			return s, nil
		case errors.Is(merr, ErrMmapUnavailable) && opts.Backend == BackendAuto:
			// Auto choice and the map could not be established —
			// graceful fallback to the resident ReadAt path below.
		default:
			return nil, merr
		}
	}

	// Read and checksum every section, then hand the arrays to
	// AssembleFlat for the structural invariants.
	readSection := func(sec sectionEntry) ([]byte, error) {
		b := make([]byte, sec.length)
		if _, err := f.ReadAt(b, sec.offset); err != nil {
			return nil, fmt.Errorf("section kind %d: %w", sec.kind, err)
		}
		if got := crc32.Checksum(b, castagnoli); got != sec.crc {
			return nil, fmt.Errorf("section kind %d checksum mismatch (got %08x, want %08x)",
				sec.kind, got, sec.crc)
		}
		return b, nil
	}
	var (
		i32s                 [4][]int32
		rectLo, rectHi       []float64
		points               []float64
		pointsOff, pointsLen int64
	)
	for i, sec := range h.sections {
		b, err := readSection(sec)
		if err != nil {
			return nil, err
		}
		switch {
		case i < 4:
			i32s[i] = decodeInt32s(b)
		case sec.kind == secRectLo:
			rectLo = decodeFloat64s(b)
		case sec.kind == secRectHi:
			rectHi = decodeFloat64s(b)
		case sec.kind == secPoints:
			points = decodeFloat64s(b)
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
	return &Snapshot{
		f:         f,
		path:      path,
		h:         h,
		tree:      tree,
		backend:   BackendReadAt,
		pointsOff: pointsOff,
		pointsLen: pointsLen,
		lastPage:  -1,
	}, nil
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

func decodeInt32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func decodeFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// Tree returns the verified FlatTree. With BackendReadAt it is
// resident and remains valid after Close; with BackendMmap its arrays
// are views into the mapping and must not be used after Close unmaps
// them.
func (s *Snapshot) Tree() *rtree.FlatTree { return s.tree }

// Backend returns the read path this snapshot was opened with (never
// BackendAuto — Open resolves the choice).
func (s *Snapshot) Backend() Backend { return s.backend }

// ZeroCopy reports whether LeafRows returns views into the snapshot's
// mapped memory rather than buf-backed copies. Callers that recycle
// returned slices as scratch buffers (the query package's best-first
// search over a LeafSource) must not do so when this is true.
func (s *Snapshot) ZeroCopy() bool { return s.backend == BackendMmap }

// Path returns the file path the snapshot was opened from.
func (s *Snapshot) Path() string { return s.path }

// PageBytes returns the page size the file was written with.
func (s *Snapshot) PageBytes() int { return s.h.pageBytes }

// Pages returns the total number of pages in the file occupied by the
// points section — the quantity the paper's leaf-access predictions
// are ultimately priced against.
func (s *Snapshot) Pages() int64 { return pagePad(s.pointsLen, s.h.pageBytes) / int64(s.h.pageBytes) }

// LeafRows returns point rows [start, end) of the points section in
// the same row-major layout as the resident matrix.
//
// With BackendReadAt the rows are read with real page-granular I/O —
// one contiguous ReadAt spanning whole pages — and decoded into buf
// (grown as needed); the counters charge one transfer per page and one
// seek when the first page is not adjacent to the last page previously
// read, mirroring the simulated disk's accounting. The returned slice
// aliases buf and is overwritten by the next call with the same buf.
//
// With BackendMmap the rows are a zero-copy view straight into the
// mapped points section — no syscall, no decode, buf is ignored — and
// the counters charge at fault granularity: a page's first touch since
// ResetCounters is a transfer+miss (plus a seek when not adjacent to
// the previously faulted page), later touches are hits. The view stays
// readable until Close; callers that retain rows must still copy them
// (the LeafSource contract).
//
// The file was fully verified at Open, so a read failure here is an
// environmental I/O error (device gone, file unlinked and truncated
// underfoot); LeafRows panics on it rather than corrupting results.
func (s *Snapshot) LeafRows(start, end int, buf []float64) []float64 {
	dim := s.h.dim
	n := end - start
	if n < 0 || start < 0 || end > s.h.numPoints {
		panic(fmt.Sprintf("pager: rows [%d, %d) of %d points", start, end, s.h.numPoints))
	}
	if n == 0 {
		return buf[:0]
	}
	if s.backend == BackendMmap {
		return s.leafRowsMmap(start, end)
	}
	pb := int64(s.h.pageBytes)
	byteOff := s.pointsOff + int64(start)*int64(dim)*8
	byteLen := int64(n) * int64(dim) * 8
	firstPage := byteOff / pb
	lastPage := (byteOff + byteLen - 1) / pb

	s.mu.Lock()
	if firstPage != s.lastPage && firstPage != s.lastPage+1 {
		s.counters.Seeks++
	}
	s.counters.Transfers += lastPage - firstPage + 1
	s.counters.Misses += lastPage - firstPage + 1
	s.lastPage = lastPage
	s.mu.Unlock()

	// Fetch the whole page run, then decode the row span out of it.
	runLen := int((lastPage - firstPage + 1) * pb)
	var raw []byte
	if p, _ := s.bufPool.Get().(*[]byte); p != nil && cap(*p) >= runLen {
		raw = (*p)[:runLen]
	} else {
		raw = make([]byte, runLen)
	}
	if _, err := s.f.ReadAt(raw, firstPage*pb); err != nil {
		panic(fmt.Sprintf("pager: read pages [%d, %d] of %s: %v", firstPage, lastPage, s.path, err))
	}
	skip := byteOff - firstPage*pb
	want := n * dim
	if cap(buf) < want {
		buf = make([]float64, want)
	}
	out := buf[:want]
	src := raw[skip : skip+byteLen]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
	s.bufPool.Put(&raw)
	return out
}

// leafRowsMmap serves rows [start, end) as a view into the mapped
// points section, charging first-touch faults. Bounds were checked by
// LeafRows.
func (s *Snapshot) leafRowsMmap(start, end int) []float64 {
	dim := s.h.dim
	pb := int64(s.h.pageBytes)
	byteOff := s.pointsOff + int64(start)*int64(dim)*8
	byteLen := int64(end-start) * int64(dim) * 8
	firstPage := byteOff / pb
	lastPage := (byteOff + byteLen - 1) / pb
	base := s.pointsOff / pb

	s.mu.Lock()
	for p := firstPage; p <= lastPage; p++ {
		idx := int(p - base)
		if s.faulted[idx>>6]&(1<<(idx&63)) != 0 {
			s.counters.Hits++
			continue
		}
		s.faulted[idx>>6] |= 1 << (idx & 63)
		if p != s.lastPage+1 {
			s.counters.Seeks++
		}
		s.counters.Transfers++
		s.counters.Misses++
		s.lastPage = p
	}
	s.mu.Unlock()
	return s.points[start*dim : end*dim]
}

// Counters returns the accumulated pager I/O counters. Snapshot
// implements obs.CounterSource, so a pager can sit behind an obs.Trace
// and have its page reads show up in phase reports exactly like the
// simulated disk's.
func (s *Snapshot) Counters() disk.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// ResetCounters zeroes the counters and forgets the head position, so
// the next read is charged a seek. For the mmap backend it also clears
// the touched-page bitmap: the fault accounting models a page cache
// that is cold at reset (each page's first touch per measured workload
// is counted once), which is what makes measured mmap cost comparable
// to the simulator's — the kernel's real residency is not observable
// per touch.
func (s *Snapshot) ResetCounters() {
	s.mu.Lock()
	s.counters = disk.Counters{}
	s.lastPage = -1
	for i := range s.faulted {
		s.faulted[i] = 0
	}
	s.mu.Unlock()
}

// Close releases the snapshot's resources, exactly once (further calls
// return the first result). With BackendReadAt it closes the file
// handle; the resident tree stays usable and only LeafRows dies. With
// BackendMmap it unmaps the file — the tree and every row view become
// invalid, so Close must happen strictly after the last reader is done
// (the serving layer ties it to the snapshot-retire protocol).
func (s *Snapshot) Close() error {
	s.closeOnce.Do(func() {
		if s.mapped != nil {
			s.closeErr = munmapFile(s.mapped)
			s.mapped = nil
		}
		if s.f != nil {
			if err := s.f.Close(); s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// Load opens, verifies, and closes path, returning just the resident
// tree — the convenience entry point for callers (server recovery, the
// facade) that want the tree without the pager read path. It always
// uses the ReadAt backend: the returned tree must outlive the file
// handle, which a mapped tree cannot.
func Load(path string) (*rtree.FlatTree, error) {
	s, err := OpenWith(path, Options{Backend: BackendReadAt})
	if err != nil {
		return nil, err
	}
	t := s.Tree()
	if err := s.Close(); err != nil {
		return nil, err
	}
	return t, nil
}
