package dataset

import "math/rand"

// Sampling primitives. The predictors need two kinds of samples: an
// exact-size uniform sample (used to fill memory with exactly M
// points), and a reservoir over a stream (used to draw the upper-tree
// sample during the single dataset scan).

// SampleExact returns exactly m points drawn uniformly without
// replacement from pts (all of them if m >= len(pts)). The returned
// slice shares point storage with pts; pts itself is not reordered.
func SampleExact(pts [][]float64, m int, rng *rand.Rand) [][]float64 {
	if m < 0 {
		panic("dataset: negative sample size")
	}
	n := len(pts)
	if m >= n {
		out := make([][]float64, n)
		copy(out, pts)
		return out
	}
	// Partial Fisher-Yates over an index permutation.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([][]float64, m)
	for i := 0; i < m; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = pts[idx[i]]
	}
	return out
}

// Reservoir maintains a uniform sample of fixed capacity over a stream
// of points (Vitter's Algorithm R). The predictors use it to draw the
// upper-tree sample during the single dataset scan.
type Reservoir struct {
	cap  int
	seen int
	pts  [][]float64
	rng  *rand.Rand
}

// NewReservoir returns a reservoir holding at most capacity points.
func NewReservoir(capacity int, rng *rand.Rand) *Reservoir {
	if capacity <= 0 {
		panic("dataset: reservoir capacity must be positive")
	}
	return &Reservoir{cap: capacity, rng: rng}
}

// Offer feeds one point of the stream to the reservoir.
func (r *Reservoir) Offer(p []float64) {
	r.seen++
	if len(r.pts) < r.cap {
		r.pts = append(r.pts, p)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.cap {
		r.pts[j] = p
	}
}

// Sample returns the current sample. The slice is owned by the
// reservoir; callers must not retain it across further Offers.
func (r *Reservoir) Sample() [][]float64 { return r.pts }
