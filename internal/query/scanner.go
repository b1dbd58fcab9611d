package query

import (
	"fmt"
	"math"

	"hdidx/internal/par"
)

// SphereScanner computes the k-NN radii of a fixed set of query points
// over a dataset that is streamed in chunks — the way the predictors
// of the paper determine their query spheres during the single dataset
// scan (Figure 5 step 3, Figure 7 step 3). It is the package's only
// sphere scan: ComputeSpheres feeds it the whole dataset as one chunk.
type SphereScanner struct {
	queryPoints [][]float64
	k           int
	heaps       []*BoundedMaxHeap
	seen        int
	dim         int // fixed by the first row seen
}

// NewSphereScanner prepares a scanner for the given query points and
// k.
func NewSphereScanner(queryPoints [][]float64, k int) *SphereScanner {
	if k <= 0 {
		panic("query: k must be positive")
	}
	heaps := make([]*BoundedMaxHeap, len(queryPoints))
	for i := range heaps {
		heaps[i] = NewBoundedMaxHeap(k)
	}
	return &SphereScanner{queryPoints: queryPoints, k: k, heaps: heaps}
}

// Process feeds one chunk of the dataset to the scanner. The first
// row the scanner sees fixes the dimension; a row or query of another
// width panics. The chunk's full lane groups are packed once, then
// the queries fan out on the worker pool: batch by batch, every
// query of a worker's share runs the group kernel against its heap
// (the k-th-best bound carries over from earlier chunks and batches),
// and the leftover rows run the single-row kernel.
func (s *SphereScanner) Process(chunk [][]float64) {
	if len(chunk) == 0 {
		return
	}
	if s.seen == 0 {
		s.dim = len(chunk[0])
		for i, q := range s.queryPoints {
			if len(q) != s.dim {
				panic(fmt.Sprintf("query: query %d has dimension %d, want %d", i, len(q), s.dim))
			}
		}
	}
	dim := s.dim
	for i, row := range chunk {
		if len(row) != dim {
			panic(fmt.Sprintf("query: row %d has dimension %d, want %d", s.seen+i, len(row), dim))
		}
	}
	s.seen += len(chunk)

	lanes, kernel := scanKernel()
	pm := packMatrix(chunk, dim, lanes)
	tail := chunk[pm.groups*lanes:]
	dimPad, groupBytes := pm.dimPad, pm.groupBytes()
	nchunks := dimPad / dimChunk
	batchGroups := scanBatch / lanes
	par.Chunks(len(s.queryPoints), func(lo, hi int) {
		sc := scratchPool.Get().(*scanScratch)
		if cap(sc.qpad) < dimPad {
			sc.qpad = make([]float64, dimPad)
		}
		qpad, part := sc.qpad[:dimPad], sc.part
		clear(qpad[dim:])
		for b0 := 0; b0 < pm.groups; b0 += batchGroups {
			bn := min(batchGroups, pm.groups-b0)
			for qi := lo; qi < hi; qi++ {
				copy(qpad, s.queryPoints[qi])
				h := s.heaps[qi]
				bound := h.Max()
				kernel(&pm.buf[0], groupBytes, b0, bn, &qpad[0], nchunks, bound, &part[0])
				// Distances above the bound — abandoned groups and
				// completed rows alike — are exactly the values the
				// heap would reject, so they are filtered here
				// without the call. Inserts tighten the filter.
				for _, v := range part[:bn*lanes] {
					if v <= bound {
						h.Offer(v)
						bound = h.Max()
					}
				}
			}
		}
		for qi := lo; qi < hi; qi++ {
			h, q := s.heaps[qi], s.queryPoints[qi]
			bound := h.Max()
			for _, row := range tail {
				if d, ok := sqDistBounded(row, q, bound); ok {
					h.Offer(d)
					bound = h.Max()
				}
			}
		}
		scratchPool.Put(sc)
	})
	packedPool.Put(pm)
}

// Spheres returns the k-NN spheres after the full dataset has been
// processed. It panics if fewer than k points were seen.
func (s *SphereScanner) Spheres() []Sphere {
	if s.seen < s.k {
		panic("query: scanner saw fewer points than k")
	}
	out := make([]Sphere, len(s.queryPoints))
	for i, h := range s.heaps {
		out[i] = Sphere{Center: s.queryPoints[i], Radius: math.Sqrt(h.Max())}
	}
	return out
}
