package hdidx

import (
	"fmt"

	"hdidx/internal/pager"
	"hdidx/internal/rtree"
)

// This file is the facade over internal/pager: saving an index's query
// snapshot to a page-aligned, checksummed file and reopening it later
// without rebuilding — resident (decoded into heap arrays) or
// zero-copy from a read-only file mapping. See DESIGN.md §12 for the
// format and the crash-safety argument, §13 for the mmap read path.

// Backend selects how OpenWith reads a snapshot file.
type Backend = pager.Backend

const (
	// BackendAuto serves from a read-only file mapping where the
	// platform supports it and falls back to the resident reader
	// otherwise (the HDIDX_PAGER_BACKEND environment variable
	// overrides the choice).
	BackendAuto = pager.BackendAuto
	// BackendReadAt decodes the whole snapshot into resident arrays.
	BackendReadAt = pager.BackendReadAt
	// BackendMmap maps the file read-only and serves the tree —
	// directory arrays included — zero-copy from the mapping, so
	// snapshots larger than memory open without materializing them.
	// Opening fails where the platform lacks mmap.
	BackendMmap = pager.BackendMmap
)

// ParseBackend parses "auto", "readat", or "mmap" — the CLI flag
// vocabulary for Backend.
func ParseBackend(s string) (Backend, error) { return pager.ParseBackend(s) }

// MmapSupported reports whether the mmap backend can work on this
// platform.
func MmapSupported() bool { return pager.MmapSupported() }

// Save writes the index's query snapshot (the flat tree all searches
// run on) to path as a versioned,
// checksummed, page-aligned snapshot file, atomically: the bytes land
// in a temporary file that is synced and renamed over path, so a crash
// mid-save leaves any previous file at path intact. The file's page
// size is the index's configured page geometry (WithPageBytes).
func (ix *Index) Save(path string) error {
	pb := ix.g.PageBytes
	if pb < pager.MinPageBytes {
		pb = pager.MinPageBytes
	}
	_, err := pager.WriteFileAtomic(path, ix.flat, pb)
	return err
}

// Open loads an index from a snapshot file written by Save (or by a
// server's durable publication) with the Auto backend — zero-copy
// mmap where available, resident otherwise. Equivalent to
// OpenWith(path, BackendAuto).
func Open(path string) (*Index, error) { return OpenWith(path, BackendAuto) }

// OpenWith loads an index from a snapshot file through the chosen
// backend. The whole file is verified — header and per-section
// checksums, then every structural invariant of the tree — before any
// query can run, so a truncated, corrupted, or foreign file fails here
// with an error, never later inside a search.
//
// The opened index answers KNN and RangeCount exactly like the index
// that saved it (bit-identical results, whichever backend), and
// returns private neighbor copies either way. It carries the query
// snapshot only, not the build-time pointer tree. An mmap-backed index
// holds the file mapping until Close; a resident one needs no Close.
func OpenWith(path string, b Backend) (*Index, error) {
	s, err := pager.OpenWith(path, pager.Options{Backend: b})
	if err != nil {
		return nil, err
	}
	ft := s.Tree()
	g := rtree.Geometry{Dim: ft.Dim, PageBytes: s.PageBytes(), Utilization: rtree.DefaultUtilization}
	if ft.NumPoints == 0 {
		s.Close()
		return nil, fmt.Errorf("hdidx: snapshot %s holds no points", path)
	}
	if s.Backend() == pager.BackendMmap {
		// The tree's arrays are views into the mapping; the snapshot
		// must outlive the index.
		return &Index{flat: ft, g: g, snap: s}, nil
	}
	// Resident tree: the arrays own their memory, the handle can go.
	if err := s.Close(); err != nil {
		return nil, err
	}
	return &Index{flat: ft, g: g}, nil
}

// Mapped reports whether this index serves its snapshot zero-copy from
// a read-only file mapping (OpenWith with the mmap backend).
func (ix *Index) Mapped() bool { return ix.snap != nil }

// Close releases the file mapping of an mmap-backed index; queries
// must not run after it. On a built or resident index it is a no-op.
// Close is idempotent.
func (ix *Index) Close() error {
	if ix.snap == nil {
		return nil
	}
	return ix.snap.Close()
}
