package pager

import (
	"errors"
	"unsafe"
)

// Backend selects how an open Snapshot reads the snapshot file.
//
// BackendReadAt reads every section with ReadAt, checksums it, and
// decodes it into resident heap arrays at Open. The whole tree is
// materialized in memory and the file is closed.
//
// BackendMmap maps the file read-only and serves everything straight
// from the mapping: the directory arrays (child ranges, RectSet corner
// columns) and the point matrix are reinterpreted in place — nothing
// is materialized, so trees larger than memory open, and a leaf scan
// reads its rows out of the mapped points section with no syscall and
// no copy.
//
// BackendAuto (the zero value) lets the platform decide: Mmap where
// MmapSupported holds (little-endian linux/darwin), ReadAt otherwise,
// and ReadAt again when the map cannot be established.
type Backend int

const (
	// BackendAuto selects Mmap when available, ReadAt otherwise.
	BackendAuto Backend = iota
	// BackendReadAt decodes the file into resident arrays.
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
// format is little-endian; the mmap backend reinterprets mapped bytes
// in place and therefore requires a little-endian host (every other
// host still reads snapshots through the decoding ReadAt backend).
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}
