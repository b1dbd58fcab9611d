package pager

import (
	"errors"
	"fmt"
	"unsafe"
)

// Backend selects how an open Snapshot reads the snapshot file.
//
// BackendReadAt is the original pager: every section is read, decoded,
// and checksummed into resident heap arrays at Open, and LeafRows
// fetches leaf pages with page-granular ReadAt calls into pooled copy
// buffers. The whole tree is materialized in memory.
//
// BackendMmap maps the file read-only and serves everything straight
// from the mapping: the directory arrays (child ranges, RectSet corner
// columns) are reinterpreted in place —
// nothing is materialized, so trees larger than memory open — and
// LeafRows returns zero-copy views into the mapped points section (no
// syscall, no memcpy per leaf). Page touches are accounted at fault
// granularity: the first touch of each points page since the last
// ResetCounters is a transfer+miss, re-touches are hits.
//
// BackendAuto (the zero value) lets the platform decide: Mmap where
// MmapSupported holds (little-endian linux/darwin), ReadAt otherwise,
// and ReadAt again when the map cannot be established.
type Backend int

const (
	// BackendAuto selects Mmap when available, ReadAt otherwise.
	BackendAuto Backend = iota
	// BackendReadAt is the resident pager with ReadAt leaf fetches.
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

// String renders the backend name.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendReadAt:
		return "readat"
	case BackendMmap:
		return "mmap"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

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
