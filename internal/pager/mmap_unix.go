//go:build linux || darwin

package pager

import (
	"fmt"
	"hash/crc32"
	"os"
	"syscall"
	"unsafe"

	"hdidx/internal/rtree"
	"hdidx/internal/vec"
)

// The mmap backend: the snapshot file is mapped read-only once, every
// section checksum is verified over the mapped bytes (one sequential
// pass that also warms the page cache), and then the directory arrays
// and the point matrix are *reinterpreted in place* — unsafe.Slice
// views over the mapping, handed to rtree.AssembleFlat, which adopts
// arrays without copying. Nothing is materialized on the heap, so a
// tree larger than memory opens in O(verification) time and pages in
// on demand.
//
// Safety of the reinterpretation rests on three facts:
//   - every section starts on a page boundary (MinPageBytes = 512), so
//     float64/int32 views are always 8-byte aligned;
//   - the format is little-endian and openMmap refuses big-endian
//     hosts (hostLittleEndian), so the in-place bytes are the in-memory
//     representation;
//   - the mapping is PROT_READ: the kernel enforces the immutability
//     AssembleFlat's validation assumed.
//
// The file descriptor is closed right after the map is established —
// a mapping outlives its descriptor — so an open mmap Snapshot holds
// one mapping and zero descriptors.

const mmapSupported = true

// openMmap maps f and assembles a Snapshot whose tree is backed
// entirely by the mapping. Failures to establish the map come back as
// ErrMmapUnavailable (the Auto caller falls back to ReadAt);
// verification failures over the map are ordinary corruption errors.
func openMmap(f *os.File, path string, h *header, size int64) (*Snapshot, error) {
	if !hostLittleEndian() {
		return nil, fmt.Errorf("%w: big-endian host", ErrMmapUnavailable)
	}
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("%w: %d-byte file exceeds the address space", ErrMmapUnavailable, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("%w: mmap: %v", ErrMmapUnavailable, err)
	}
	ok := false
	defer func() {
		if !ok {
			syscall.Munmap(data)
		}
	}()

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

	// Advise the kernel about the access pattern: the directory arrays
	// (everything that is not the points section) are touched by every
	// traversal — keep them warm; the points section is visited at
	// query-driven leaf granularity — random access, don't read ahead.
	// The checksum pass above already faulted everything once; the
	// advice matters when the kernel later evicts. Errors are ignored:
	// madvise is advisory and the mapping works without it.
	pb := int64(h.pageBytes)
	pointsRun := pagePad(pointsLen, h.pageBytes)
	if pointsOff > pb {
		syscall.Madvise(data[pb:pointsOff], syscall.MADV_WILLNEED)
	}
	if pointsLen > 0 {
		syscall.Madvise(data[pointsOff:pointsOff+pointsRun], syscall.MADV_RANDOM)
	}
	if tail := pointsOff + pointsRun; tail < size {
		syscall.Madvise(data[tail:size], syscall.MADV_WILLNEED)
	}

	ok = true
	return &Snapshot{
		path:      path,
		h:         h,
		tree:      tree,
		backend:   BackendMmap,
		mapped:    data,
		pointsOff: pointsOff,
		pointsLen: pointsLen,
	}, nil
}

// munmapFile releases a mapping established by openMmap.
func munmapFile(data []byte) error { return syscall.Munmap(data) }

// viewFloat64s reinterprets a mapped little-endian section in place.
// Callers guarantee b is 8-byte aligned (sections are page-aligned)
// and the host is little-endian.
func viewFloat64s(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// viewInt32s reinterprets a mapped little-endian section in place.
func viewInt32s(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}
