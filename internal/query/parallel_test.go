package query

import (
	"runtime"
	"sync/atomic"
	"testing"

	"hdidx/internal/par"
)

// The package's kernels fan out through internal/par (par.For and
// par.Chunks over queries, with per-chunk pooled scratch); these tests
// pin the coverage and visibility properties they rely on.

// chunksPerWorker mirrors par.chunksPerWorker so the sizes below still
// straddle the scheduling boundaries of the shared pool.
const chunksPerWorker = 8

// Regression for the scheduler rewrite: every index in [0, n) must be
// visited exactly once, for sizes around every scheduling boundary
// (empty, single, fewer than workers, chunk-size edges, large).
func TestParallelForVisitsEachIndexOnce(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	sizes := []int{0, 1, 2, workers - 1, workers, workers + 1,
		workers*chunksPerWorker - 1, workers * chunksPerWorker,
		workers*chunksPerWorker + 1, 1000, 65537}
	for _, n := range sizes {
		if n < 0 {
			continue
		}
		counts := make([]int32, n)
		par.For(n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestParallelChunksCoverDisjointRanges(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 12345} {
		counts := make([]int32, n)
		var calls int32
		par.Chunks(n, func(lo, hi int) {
			atomic.AddInt32(&calls, 1)
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("n=%d: bad range [%d,%d)", n, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
		if n == 0 && calls != 0 {
			t.Error("par.Chunks called f for n=0")
		}
	}
}

func TestParallelForPropagatesWrites(t *testing.T) {
	// The WaitGroup must publish all worker writes to the caller.
	n := 10000
	out := make([]float64, n)
	par.For(n, func(i int) { out[i] = float64(i) * 2 })
	for i := range out {
		if out[i] != float64(i)*2 {
			t.Fatalf("index %d: %v", i, out[i])
		}
	}
}
