package hdidx

import (
	"fmt"

	"hdidx/internal/pager"
	"hdidx/internal/rtree"
)

// This file is the facade over internal/pager: saving an index's query
// snapshot to a page-aligned, checksummed file and reopening it later
// without rebuilding. How a reopened snapshot is read is the
// platform's choice: zero-copy from a read-only file mapping where
// mmap is supported, read from the file into memory elsewhere. See
// DESIGN.md §12 for the format and the crash-safety argument, §13 for
// the mmap read path.

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

// Open loads an index from a snapshot file written by Save, or from one
// of a durable server's shard files (<path>.s<shard>.g<generation>.hdsn
// beside its ServeConfig.SnapshotPath manifest, which Open does not
// read). The whole file is verified — header and per-section
// checksums, then every structural invariant of the tree, rectangles
// bounding what they cover included — before any query can run, so a
// truncated, corrupted, or foreign file fails here with an error,
// never later inside a search.
//
// Where the platform supports mmap the index serves the snapshot
// zero-copy from a read-only file mapping (Mapped reports true) and
// holds the mapping until Close; elsewhere, or when the file cannot be
// mapped, the file is read into memory and Close releases nothing.
// Either way the opened index answers KNN and RangeCount
// bit-identically to the index that saved it and returns private
// neighbor copies.
func Open(path string) (*Index, error) {
	s, err := pager.Open(path)
	if err != nil {
		return nil, err
	}
	ft := s.Tree()
	g := rtree.Geometry{Dim: ft.Dim, PageBytes: s.PageBytes(), Utilization: rtree.DefaultUtilization}
	if ft.NumPoints == 0 {
		s.Close()
		return nil, fmt.Errorf("hdidx: snapshot %s holds no points", path)
	}
	// The tree's arrays are views into the snapshot's bytes; the
	// snapshot must outlive the index.
	return &Index{flat: ft, g: g, snap: s}, nil
}

// Mapped reports whether this index serves its snapshot zero-copy from
// a read-only file mapping.
func (ix *Index) Mapped() bool { return ix.snap != nil && ix.snap.Backend() == pager.BackendMmap }

// Close releases the file mapping of an mmap-backed index; queries
// must not run after it. On a built index, or one whose file was read
// into memory, it is a no-op. Close is idempotent.
func (ix *Index) Close() error {
	if ix.snap == nil {
		return nil
	}
	return ix.snap.Close()
}
