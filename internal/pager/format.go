// Package pager is the real persistence layer of the repository: a
// versioned, checksummed, page-aligned on-disk file format for
// rtree.FlatTree query snapshots, an atomic (tmp+rename) writer for
// crash-safe publication, and a pager read path whose page reads are
// real file I/O counted in disk.Counters — the measured counterpart of
// the simulated disk everything else in this repository prices I/O on.
//
// # File format (version 1)
//
// A snapshot file is a sequence of fixed-size pages (PageBytes from
// the writer, at least MinPageBytes). Page 0 holds the header; every
// section starts on a page boundary and is zero-padded to one:
//
//	page 0   header: magic "HDSN", version, page size, tree shape
//	         (dim, height, points, leaves, nodes), a reserved word
//	         that must be zero, section table (kind, CRC-32C, offset,
//	         length per section), CRC-32C over the header bytes.
//	...      sections, each page-aligned, in fixed kind order:
//	           childStart  int32[numNodes]     little endian
//	           childCount  int32[numNodes]
//	           ptStart     int32[numNodes]
//	           ptCount     int32[numNodes]
//	           rectLo      float64[numNodes*dim]
//	           rectHi      float64[numNodes*dim]
//	           points      float64[numPoints*dim]  (row-major)
//
// The layout mirrors the in-memory FlatTree exactly — the int32 child
// ranges, the RectSet corner columns, and the packed point matrix are
// each one contiguous, sequentially scannable run — so loading is a
// single forward pass and the points section can be paged at byte
// granularity without touching the rest.
//
// The reserved word (header offset 44) and section kinds 8 and 9 once
// held the quantized scan prefilter: its bits per dimension, its
// column-major byte codes, and its quantizer marks. The prefilter is
// retired; a file that still uses any of them fails Open with
// ErrRetiredFormat, and re-saving the index without the prefilter
// makes it readable again. Files written without a prefilter are
// unchanged, byte for byte.
//
// Every section and the header carry independent CRC-32C checksums;
// Open verifies all of them plus every structural invariant
// (rtree.AssembleFlat), so truncated, bit-flipped, version-skewed, or
// foreign files fail with an error — never a panic, never a silently
// misread tree.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"hdidx/internal/rtree"
)

const (
	// Magic identifies a snapshot file ("high-dimensional snapshot").
	Magic = "HDSN"
	// Version is the current format version.
	Version = 1
	// MinPageBytes is the smallest supported page size; the header
	// must fit in page 0.
	MinPageBytes = 512
	// maxPageBytes bounds page sizes a header may claim, so a
	// corrupted size cannot drive huge allocations.
	maxPageBytes = 1 << 30
)

// Section kinds, in file order.
const (
	secChildStart = 1 + iota
	secChildCount
	secPtStart
	secPtCount
	secRectLo
	secRectHi
	secPoints
	// Kinds of the retired prefilter sections, rejected by Open.
	secRetiredCodes
	secRetiredMarks
)

// maxSections is the number of section-table slots in the header. It
// keeps the two slots of the retired prefilter sections so the header
// size, and with it every v1 file, stays as it was.
const maxSections = 9

// ErrRetiredFormat reports a snapshot that uses the retired quantized
// scan prefilter: a nonzero reserved header word or a codes or marks
// section. Test with errors.Is.
var ErrRetiredFormat = errors.New("snapshot carries the retired quantized scan prefilter; re-save the index without it")

// headerBytes is the fixed size of the encoded header: 52 bytes of
// scalar fields, 24 bytes per section-table slot, and the trailing
// CRC-32C.
const headerBytes = 52 + 24*maxSections + 4

// castagnoli is the CRC-32C table used for every checksum in the file.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header is the decoded page-0 metadata.
type header struct {
	version   uint32
	pageBytes int
	dim       int
	height    int
	numPoints int
	numLeaves int
	numNodes  int
	sections  []sectionEntry
}

// sectionEntry locates one checksummed section.
type sectionEntry struct {
	kind   uint32
	crc    uint32
	offset int64
	length int64
}

// encode renders the header into its fixed-size blob, checksum last.
func (h *header) encode() []byte {
	b := make([]byte, headerBytes)
	copy(b[0:4], Magic)
	le := binary.LittleEndian
	le.PutUint32(b[4:], h.version)
	le.PutUint32(b[8:], uint32(h.pageBytes))
	le.PutUint32(b[12:], uint32(h.dim))
	le.PutUint32(b[16:], uint32(h.height))
	le.PutUint64(b[20:], uint64(h.numPoints))
	le.PutUint64(b[28:], uint64(h.numLeaves))
	le.PutUint64(b[36:], uint64(h.numNodes))
	// b[44:48] is the reserved word, left zero.
	le.PutUint32(b[48:], uint32(len(h.sections)))
	for i, s := range h.sections {
		off := 52 + 24*i
		le.PutUint32(b[off:], s.kind)
		le.PutUint32(b[off+4:], s.crc)
		le.PutUint64(b[off+8:], uint64(s.offset))
		le.PutUint64(b[off+16:], uint64(s.length))
	}
	le.PutUint32(b[headerBytes-4:], crc32.Checksum(b[:headerBytes-4], castagnoli))
	return b
}

// decodeHeader parses and sanity-checks the header blob. It validates
// everything that can be checked without touching the rest of the
// file: magic, checksum, version, plausible sizes, and a well-formed
// section table.
func decodeHeader(b []byte) (*header, error) {
	if len(b) < headerBytes {
		return nil, fmt.Errorf("pager: file too short for a snapshot header (%d bytes)", len(b))
	}
	if string(b[0:4]) != Magic {
		if string(b[0:4]) == ManifestMagic {
			return nil, fmt.Errorf("pager: file is a shard manifest (magic %q), not a snapshot — open it with ReadManifest", ManifestMagic)
		}
		return nil, fmt.Errorf("pager: not a snapshot file (magic %q)", b[0:4])
	}
	le := binary.LittleEndian
	if got, want := le.Uint32(b[headerBytes-4:]), crc32.Checksum(b[:headerBytes-4], castagnoli); got != want {
		return nil, fmt.Errorf("pager: header checksum mismatch (got %08x, want %08x)", got, want)
	}
	h := &header{
		version:   le.Uint32(b[4:]),
		pageBytes: int(le.Uint32(b[8:])),
		dim:       int(le.Uint32(b[12:])),
		height:    int(le.Uint32(b[16:])),
		numPoints: int(le.Uint64(b[20:])),
		numLeaves: int(le.Uint64(b[28:])),
		numNodes:  int(le.Uint64(b[36:])),
	}
	if h.version != Version {
		return nil, fmt.Errorf("pager: snapshot version %d, this build reads version %d", h.version, Version)
	}
	if bits := le.Uint32(b[44:]); bits != 0 {
		return nil, fmt.Errorf("pager: %w (%d bits per dimension)", ErrRetiredFormat, bits)
	}
	if h.pageBytes < MinPageBytes || h.pageBytes > maxPageBytes {
		return nil, fmt.Errorf("pager: implausible page size %d", h.pageBytes)
	}
	const maxCount = 1 << 31
	if h.dim < 0 || h.dim > 1<<20 || h.numPoints < 0 || h.numPoints > maxCount ||
		h.numNodes < 0 || h.numNodes > maxCount || h.numLeaves < 0 || h.numLeaves > h.numNodes ||
		h.height < 0 {
		return nil, fmt.Errorf("pager: implausible header (dim=%d points=%d nodes=%d leaves=%d height=%d)",
			h.dim, h.numPoints, h.numNodes, h.numLeaves, h.height)
	}
	nsec := int(le.Uint32(b[48:]))
	if nsec < 0 || nsec > maxSections {
		return nil, fmt.Errorf("pager: %d sections outside [0, %d]", nsec, maxSections)
	}
	h.sections = make([]sectionEntry, nsec)
	for i := range h.sections {
		off := 52 + 24*i
		h.sections[i] = sectionEntry{
			kind:   le.Uint32(b[off:]),
			crc:    le.Uint32(b[off+4:]),
			offset: int64(le.Uint64(b[off+8:])),
			length: int64(le.Uint64(b[off+16:])),
		}
	}
	return h, nil
}

// section pairs a table entry with a chunked encoder, so the writer
// can stream a section twice (once for its checksum, once for the
// bytes) without materializing large sections in memory.
type section struct {
	kind    uint32
	length  int64
	writeTo func(io.Writer) error
}

// encodeChunk is the scratch granularity of the chunked encoders.
const encodeChunk = 32 << 10

func int32Section(kind uint32, data []int32) section {
	return section{kind: kind, length: int64(len(data)) * 4, writeTo: func(w io.Writer) error {
		buf := make([]byte, encodeChunk)
		vals := data // the writer streams each section twice (CRC pass, write pass)
		for len(vals) > 0 {
			n := len(vals)
			if n > encodeChunk/4 {
				n = encodeChunk / 4
			}
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint32(buf[i*4:], uint32(vals[i]))
			}
			if _, err := w.Write(buf[:n*4]); err != nil {
				return err
			}
			vals = vals[n:]
		}
		return nil
	}}
}

func float64Section(kind uint32, data []float64) section {
	return section{kind: kind, length: int64(len(data)) * 8, writeTo: func(w io.Writer) error {
		buf := make([]byte, encodeChunk)
		vals := data
		for len(vals) > 0 {
			n := len(vals)
			if n > encodeChunk/8 {
				n = encodeChunk / 8
			}
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(vals[i]))
			}
			if _, err := w.Write(buf[:n*8]); err != nil {
				return err
			}
			vals = vals[n:]
		}
		return nil
	}}
}

// sectionsOf lists the sections of a flat tree in file order.
func sectionsOf(ft *rtree.FlatTree) []section {
	var rectLo, rectHi []float64
	if ft.Rects != nil {
		rectLo, rectHi = ft.Rects.Corners()
	}
	return []section{
		int32Section(secChildStart, ft.ChildStart),
		int32Section(secChildCount, ft.ChildCount),
		int32Section(secPtStart, ft.PtStart),
		int32Section(secPtCount, ft.PtCount),
		float64Section(secRectLo, rectLo),
		float64Section(secRectHi, rectHi),
		float64Section(secPoints, ft.Points.Data),
	}
}

// Write serializes ft to w as a snapshot file with the given page
// size, returning the number of bytes written (a multiple of
// pageBytes). The tree is not modified; the written bytes round-trip
// bit-identically through Open/Load.
func Write(w io.Writer, ft *rtree.FlatTree, pageBytes int) (int64, error) {
	if ft == nil {
		return 0, fmt.Errorf("pager: nil tree")
	}
	if pageBytes < MinPageBytes || pageBytes > maxPageBytes {
		return 0, fmt.Errorf("pager: page size %d outside [%d, %d]", pageBytes, MinPageBytes, maxPageBytes)
	}
	secs := sectionsOf(ft)

	// Pass 1: checksums and the page-aligned layout.
	h := &header{
		version:   Version,
		pageBytes: pageBytes,
		dim:       ft.Dim,
		height:    ft.Height,
		numPoints: ft.NumPoints,
		numLeaves: ft.NumLeaves,
		numNodes:  ft.NumNodes(),
		sections:  make([]sectionEntry, len(secs)),
	}
	offset := int64(pageBytes) // page 0 is the header
	for i, s := range secs {
		crc := crc32.New(castagnoli)
		if err := s.writeTo(crc); err != nil {
			return 0, err
		}
		h.sections[i] = sectionEntry{kind: s.kind, crc: crc.Sum32(), offset: offset, length: s.length}
		offset += pagePad(s.length, pageBytes)
	}

	// Pass 2: header page, then each section padded to its page run.
	pad := make([]byte, pageBytes)
	written := int64(0)
	emit := func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		return err
	}
	hdr := h.encode()
	if err := emit(hdr); err != nil {
		return written, err
	}
	if err := emit(pad[:pageBytes-len(hdr)]); err != nil {
		return written, err
	}
	for _, s := range secs {
		before := written
		if err := s.writeTo(writerFunc(emit)); err != nil {
			return written, err
		}
		if got := written - before; got != s.length {
			return written, fmt.Errorf("pager: section %d wrote %d of %d bytes", s.kind, got, s.length)
		}
		if slack := pagePad(s.length, pageBytes) - s.length; slack > 0 {
			if err := emit(pad[:slack]); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// writerFunc adapts the byte-counting emit closure to io.Writer.
type writerFunc func([]byte) error

func (f writerFunc) Write(b []byte) (int, error) {
	if err := f(b); err != nil {
		return 0, err
	}
	return len(b), nil
}

// pagePad rounds n up to a page multiple.
func pagePad(n int64, pageBytes int) int64 {
	pb := int64(pageBytes)
	return (n + pb - 1) / pb * pb
}

// WriteFile serializes ft to path (truncating any existing file) and
// syncs it to stable storage.
func WriteFile(path string, ft *rtree.FlatTree, pageBytes int) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := Write(f, ft, pageBytes)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// WriteFileAtomic publishes ft at path crash-safely: the snapshot is
// written to a temporary file in the same directory, synced, and
// renamed over path, and the directory is synced so the rename itself
// is durable. A crash at any moment leaves either the previous
// snapshot or the new one at path — never a torn file (a stray
// .tmp-* file at worst, which Open never confuses for a snapshot and
// later publications clean up). A failed directory sync is an error:
// the new file is in place, but its rename may not survive a crash.
func WriteFileAtomic(path string, ft *rtree.FlatTree, pageBytes int) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	tmpName := tmp.Name()
	n, err := Write(tmp, ft, pageBytes)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return n, err
	}
	// Best-effort: sweep tmp files a previous crashed writer left. The
	// directory sync that makes the rename durable is not best-effort.
	if stale, _ := filepath.Glob(filepath.Join(dir, filepath.Base(path)+".tmp-*")); len(stale) > 0 {
		for _, s := range stale {
			os.Remove(s)
		}
	}
	if err := syncDir(dir); err != nil {
		return n, fmt.Errorf("pager: publish %s: %w", path, err)
	}
	return n, nil
}

// syncDir fsyncs the directory dir, making a rename inside it durable.
// It returns the first of the open, sync, and close errors.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
