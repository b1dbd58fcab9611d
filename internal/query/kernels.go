package query

import (
	"sync"
	"unsafe"

	"hdidx/internal/par"
)

// This file holds the sphere-scan layout and the portable kernels
// behind SphereScanner (and so behind ComputeSpheres). Rows are packed
// into lane-wide groups with their dimensions interleaved ([d0 of rows
// 0..L-1][d1 of rows 0..L-1]...), so one group kernel call accumulates
// L rows at once: eight independent accumulator chains instead of the
// single latency-bound s += d*d chain of the reference loop. L is 4
// (AVX2) or 8 (AVX-512F) for the assembly kernels of
// kernels_avx2_amd64.s, and 8 for the portable scanGroupsGo below.
// Dimensions are zero-padded to a multiple of dimChunk; a padded term
// adds (0-0)^2 = +0.0 to a non-negative partial sum, which is exact.
//
// The results are bit-identical to the slice-based KNNBruteRadius
// reference, which the kernel tests assert. Two facts make that
// possible:
//
//   - Every kernel accumulates each row's squared-distance terms in
//     ascending dimension order with vec.SqDist's per-term sequence
//     (d := row[j] - q[j]; s += d*d), never reassociating them, so
//     every distance value is unchanged.
//   - The k-NN radius is an order statistic of the per-row distance
//     multiset, so rows may be visited in any order, in any chunking
//     or batching, and a row may be dropped as soon as its partial
//     sum alone exceeds the bound — the bounded max-heap would reject
//     its full distance anyway.
//
// The partial-distance early exit lives in the group kernels: after
// each dimChunk dimensions except the last they compare the partial
// sums against the bound and abandon the group once every lane
// exceeds it. An abandoned group's partial sums are written out as
// they stand — all above the bound — so the caller's "offer only
// values <= bound" filter drops them without any bookkeeping, exactly
// like the completed distances the heap would reject.

// dimChunk is how many dimensions accumulate between partial-distance
// prune points, in both the group kernels and the single-row kernel.
const dimChunk = 8

// scanBatch is the number of rows per pruning batch. Within a batch
// the bound is fixed (taken from the heap at batch start); survivors
// are offered at batch end, tightening the bound for the next batch.
const scanBatch = 512

// goLanes is the lane width of the portable group kernel.
const goLanes = 8

// sqDistBounded accumulates the squared distance between row and q in
// blocks of dimChunk dimensions, giving up as soon as the partial sum
// exceeds bound. ok reports whether the full distance was computed
// and is at most bound (bound is +Inf while the caller's heap is not
// yet full, so every distance completes). The per-term accumulation
// order matches vec.SqDist exactly, keeping results bit-identical.
func sqDistBounded(row, q []float64, bound float64) (dist float64, ok bool) {
	var s float64
	j := 0
	for ; j+dimChunk <= len(q); j += dimChunk {
		for jj := j; jj < j+dimChunk; jj++ {
			d := row[jj] - q[jj]
			s += d * d
		}
		if s > bound {
			return s, false
		}
	}
	for ; j < len(q); j++ {
		d := row[j] - q[j]
		s += d * d
	}
	return s, s <= bound
}

// A groupKernel accumulates, for each of the n consecutive groups
// starting at group g0 of a packed matrix, the lanes' squared
// distances between the group's rows and the padded query q, writing
// them to part (one float64 per lane per group). A group is
// groupBytes long; nchunks is dimPad/dimChunk. Groups whose partial
// sums all exceed bound at a chunk boundary are abandoned; their
// written partials then all exceed bound. scanGroupsGo and the
// assembly kernels scanGroups4 and scanGroups8 share this contract.
type groupKernel func(packed *float64, groupBytes uintptr, g0, n int, q *float64, nchunks int, bound float64, part *float64)

// scanGroupsGo is the portable eight-lane group kernel: the fallback
// where no vector kernel runs, and the reference the vector kernels
// are tested against.
func scanGroupsGo(packed *float64, groupBytes uintptr, g0, n int, q *float64, nchunks int, bound float64, part *float64) {
	stride := int(groupBytes / 8)
	groups := unsafe.Slice(packed, (g0+n)*stride)[g0*stride:]
	qs := unsafe.Slice(q, nchunks*dimChunk)
	out := unsafe.Slice(part, n*goLanes)
	for g := 0; g < n; g++ {
		grp := groups[g*stride : (g+1)*stride]
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for c := 0; c < nchunks; c++ {
			for _, qj := range qs[c*dimChunk : (c+1)*dimChunk] {
				v := (*[goLanes]float64)(grp)
				grp = grp[goLanes:]
				d0 := v[0] - qj
				a0 += d0 * d0
				d1 := v[1] - qj
				a1 += d1 * d1
				d2 := v[2] - qj
				a2 += d2 * d2
				d3 := v[3] - qj
				a3 += d3 * d3
				d4 := v[4] - qj
				a4 += d4 * d4
				d5 := v[5] - qj
				a5 += d5 * d5
				d6 := v[6] - qj
				a6 += d6 * d6
				d7 := v[7] - qj
				a7 += d7 * d7
			}
			if c+1 < nchunks && a0 > bound && a1 > bound && a2 > bound && a3 > bound &&
				a4 > bound && a5 > bound && a6 > bound && a7 > bound {
				break
			}
		}
		o := (*[goLanes]float64)(out[g*goLanes:])
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
}

// packedMatrix is a chunk of rows packed for the group kernels: its
// full lane-wide groups, dimension-interleaved and zero-padded to
// dimPad. The chunk's leftover rows (len mod lanes) are not packed.
type packedMatrix struct {
	buf    []float64
	lanes  int
	dimPad int
	groups int
}

var packedPool = sync.Pool{New: func() interface{} { return &packedMatrix{} }}

// packMatrix packs the full groups of pts, whose rows must all have
// dimension dim, into a pooled packedMatrix, fanning the groups out on
// the worker pool.
func packMatrix(pts [][]float64, dim, lanes int) *packedMatrix {
	dimPad := (dim + dimChunk - 1) / dimChunk * dimChunk
	groups := len(pts) / lanes
	pm := packedPool.Get().(*packedMatrix)
	pm.lanes = lanes
	pm.dimPad = dimPad
	pm.groups = groups
	need := groups * lanes * dimPad
	if cap(pm.buf) < need {
		pm.buf = make([]float64, need)
	}
	pm.buf = pm.buf[:need]
	par.Chunks(groups, func(lo, hi int) {
		for g := lo; g < hi; g++ {
			dst := pm.buf[g*lanes*dimPad : (g+1)*lanes*dimPad]
			for l, row := range pts[g*lanes : (g+1)*lanes] {
				for j, v := range row {
					dst[j*lanes+l] = v
				}
			}
			clear(dst[dim*lanes:])
		}
	})
	return pm
}

// groupBytes is the byte length of one packed group.
func (pm *packedMatrix) groupBytes() uintptr { return uintptr(pm.lanes*pm.dimPad) * 8 }

// scanScratch is the pooled per-worker state of the scan: the
// zero-padded query and the per-lane distances of one batch.
type scanScratch struct {
	qpad []float64
	part []float64
}

var scratchPool = sync.Pool{New: func() interface{} {
	return &scanScratch{part: make([]float64, scanBatch)}
}}
