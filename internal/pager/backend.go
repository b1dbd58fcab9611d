package pager

import (
	"errors"
	"fmt"
	"os"
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
// BackendAuto (the zero value) picks Mmap where the platform supports
// it (little-endian linux/darwin) and falls back to ReadAt gracefully
// when the platform lacks it or the map cannot be established. The
// HDIDX_PAGER_BACKEND environment variable ("readat", "mmap", "auto")
// overrides an Auto choice — CI uses it to force the ReadAt path so
// both backends run under the race detector.
type Backend int

const (
	// BackendAuto selects Mmap when available, ReadAt otherwise.
	BackendAuto Backend = iota
	// BackendReadAt is the resident pager with ReadAt leaf fetches.
	BackendReadAt
	// BackendMmap serves zero-copy from a read-only file mapping.
	BackendMmap
)

// EnvBackend is the environment variable that overrides BackendAuto.
const EnvBackend = "HDIDX_PAGER_BACKEND"

// ErrMmapUnavailable reports that the mmap backend could not be used:
// the platform lacks it, the host is big-endian (the format is
// little-endian and the map is reinterpreted in place), or the mmap
// syscall itself failed. OpenWith with BackendAuto falls back to
// ReadAt on this error; with an explicit BackendMmap it is returned.
// Test with errors.Is.
var ErrMmapUnavailable = errors.New("pager: mmap backend unavailable")

// String renders the backend name ParseBackend accepts.
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

// ParseBackend parses "auto", "readat", or "mmap" (the CLI flag and
// environment-variable vocabulary).
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "auto", "":
		return BackendAuto, nil
	case "readat":
		return BackendReadAt, nil
	case "mmap":
		return BackendMmap, nil
	}
	return BackendAuto, fmt.Errorf("pager: unknown backend %q (want auto, readat, or mmap)", s)
}

// MmapSupported reports whether the mmap backend can work on this
// platform (it can still fail at Open time if the syscall does).
func MmapSupported() bool { return mmapSupported && hostLittleEndian() }

// ResolveBackend reports the backend b resolves to on this host: an
// explicit choice is returned unchanged; Auto applies the environment
// override and the platform default. Layers above the pager (the serve
// core, the facade) use it to decide up front whether publication will
// be mmap-backed.
func ResolveBackend(b Backend) Backend {
	rb, _ := resolveBackend(b)
	return rb
}

// resolveBackend applies the environment override and the Auto
// default. The second result reports whether the choice may still fall
// back to ReadAt when mmap fails (true only for a genuine Auto).
func resolveBackend(b Backend) (Backend, bool) {
	if b != BackendAuto {
		return b, false
	}
	if env := os.Getenv(EnvBackend); env != "" {
		if eb, err := ParseBackend(env); err == nil && eb != BackendAuto {
			return eb, false
		}
	}
	if MmapSupported() {
		return BackendMmap, true
	}
	return BackendReadAt, false
}

// hostLittleEndian reports the byte order of this host. The snapshot
// format is little-endian; the mmap backend reinterprets mapped bytes
// in place and therefore requires a little-endian host (every other
// host still reads snapshots through the decoding ReadAt backend).
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}
