//go:build !(linux || darwin)

package pager

import (
	"fmt"
	"os"
)

// Platforms without the mmap backend: BackendAuto resolves to ReadAt
// (MmapSupported is false) and a forced BackendMmap fails cleanly.

const mmapSupported = false

var mapFile = func(f *os.File, size int64) ([]byte, error) {
	return nil, fmt.Errorf("%w: not supported on this platform", ErrMmapUnavailable)
}

func adviseMapping(data []byte, pageBytes int, pointsOff, pointsLen int64) {}

func munmapFile(data []byte) error { return nil }
