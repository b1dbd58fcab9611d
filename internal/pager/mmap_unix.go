//go:build linux || darwin

package pager

import (
	"fmt"
	"os"
	"syscall"
)

// The mmap backend maps the snapshot file read-only once; Open's one
// body then checksums every section over the mapped bytes (one
// sequential pass that also warms the page cache) and views the
// directory arrays and the point matrix in place. Nothing is
// materialized on the heap, so a tree larger than memory opens in
// O(verification) time and pages in on demand. The mapping is
// PROT_READ: the kernel enforces the immutability AssembleFlat's
// validation assumed.
//
// The file descriptor is closed right after the map is established —
// a mapping outlives its descriptor — so an open mmap Snapshot holds
// one mapping and zero descriptors.

const mmapSupported = true

// mapFile maps the first size bytes of f read-only. Failures to
// establish the map come back as ErrMmapUnavailable (the Auto caller
// reads the file instead). It is a variable so tests can make the map
// fail.
var mapFile = func(f *os.File, size int64) ([]byte, error) {
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
	return data, nil
}

// adviseMapping tells the kernel how a verified mapping is read: the
// directory arrays (everything that is not the points section) are
// touched by every traversal — keep them warm; the points section is
// visited at query-driven leaf granularity — random access, don't read
// ahead. The checksum pass already faulted everything once; the advice
// matters when the kernel later evicts. Errors are ignored: madvise is
// advisory and the mapping works without it.
func adviseMapping(data []byte, pageBytes int, pointsOff, pointsLen int64) {
	pb, size := int64(pageBytes), int64(len(data))
	pointsRun := pagePad(pointsLen, pageBytes)
	if pointsOff > pb {
		syscall.Madvise(data[pb:pointsOff], syscall.MADV_WILLNEED)
	}
	if pointsLen > 0 {
		syscall.Madvise(data[pointsOff:pointsOff+pointsRun], syscall.MADV_RANDOM)
	}
	if tail := pointsOff + pointsRun; tail < size {
		syscall.Madvise(data[tail:size], syscall.MADV_WILLNEED)
	}
}

// munmapFile releases a mapping established by mapFile.
func munmapFile(data []byte) error { return syscall.Munmap(data) }
