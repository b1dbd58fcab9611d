package pager

import (
	"encoding/binary"
	"errors"
	"math"
	"unsafe"
)

// Backend selects where an open Snapshot's bytes come from. Either
// way Open verifies every checksum and structural invariant over those
// bytes, and the tree's arrays (child ranges, RectSet corner columns,
// the point matrix) are views into them.
//
// BackendReadAt reads the whole file into one heap buffer at Open and
// closes the file.
//
// BackendMmap maps the file read-only and serves everything straight
// from the mapping: nothing is materialized, so trees larger than
// memory open, and a leaf scan reads its rows out of the mapped points
// section with no syscall and no copy.
//
// BackendAuto (the zero value) lets the platform decide: Mmap where
// MmapSupported holds (little-endian linux/darwin), ReadAt otherwise,
// and ReadAt again when the map cannot be established.
type Backend int

const (
	// BackendAuto selects Mmap when available, ReadAt otherwise.
	BackendAuto Backend = iota
	// BackendReadAt reads the file into one heap buffer.
	BackendReadAt
	// BackendMmap serves zero-copy from a read-only file mapping.
	BackendMmap
)

// ErrMmapUnavailable reports that the mmap backend could not be used:
// the platform lacks it, the host is big-endian (the format is
// little-endian and the map is reinterpreted in place), or the mmap
// syscall itself failed. OpenWith with BackendAuto falls back to
// ReadAt on this error; with an explicit BackendMmap it is returned.
// Test with errors.Is.
var ErrMmapUnavailable = errors.New("pager: mmap backend unavailable")

// MmapSupported reports whether the mmap backend can work on this
// platform (it can still fail at Open time if the syscall does).
func MmapSupported() bool { return mmapSupported && hostLittleEndian() }

// ResolveBackend reports the backend b resolves to on this host: an
// explicit choice is returned unchanged, Auto becomes Mmap where
// MmapSupported holds and ReadAt otherwise.
func ResolveBackend(b Backend) Backend {
	if b != BackendAuto {
		return b
	}
	if MmapSupported() {
		return BackendMmap
	}
	return BackendReadAt
}

// hostLittleEndian reports the byte order of this host. The snapshot
// format is little-endian; the mmap backend requires a little-endian
// host, where the mapped bytes are the in-memory representation.
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// decodeViews holds on a big-endian host, where a section's bytes are
// not its values: the views below then decode each section into fresh
// arrays instead of reinterpreting it. Tests set it to run that branch
// on any host.
var decodeViews = !hostLittleEndian()

// viewFloat64s is a little-endian float64 section as a slice: the bytes
// reinterpreted in place, or decoded where decodeViews holds. b must be
// 8-byte aligned; sections start on page boundaries of a mapping or of
// one heap buffer, and both are.
func viewFloat64s(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if decodeViews {
		out := make([]float64, len(b)/8)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
		return out
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// viewInt32s is viewFloat64s for an int32 section.
func viewInt32s(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if decodeViews {
		out := make([]int32, len(b)/4)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
		}
		return out
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}
