package mbr

// Compensation for sampling-induced page shrinkage (Lang & Singh,
// SIGMOD 2001, Theorem 1).
//
// If a leaf page holds C uniformly distributed points and the expected
// extent of the minimal bounding box of n uniform points on a segment
// of length L is L*(n-1)/(n+1), then reducing the point count from C
// to C*zeta shrinks each side by
//
//	(C*zeta - 1)/(C*zeta + 1) * (C + 1)/(C - 1)
//
// and the volume by that factor to the d-th power — which is exactly
// the paper's
//
//	delta(C, zeta)^-1 = ( (C*zeta - 1)(C + 1) / ((C*zeta + 1)(C - 1)) )^d.
//
// Growing a sampled page back to the expected original extent therefore
// multiplies each side by the reciprocal per-side factor.

// CompensationSideFactor returns the factor by which each side of a
// sampled page's bounding box must be multiplied to recover the
// expected extent of the original page, where capacity is the original
// page capacity C (points per page) and zeta in (0, 1] is the sampling
// fraction.
//
// Theorem 1's volume factor is this side factor to the d-th power,
//
//	delta(C, zeta) = CompensationSideFactor(C, zeta)^d,
//
// the factor by which a sampled page's volume must be multiplied to
// recover the expected original page volume in d dimensions. The
// predictors grow rectangles side by side (Rect.GrowCentered), so only
// the side factor is computed.
//
// The factor is >= 1 and approaches 1 as zeta -> 1. Inputs where the
// sampled page would hold at most one point (capacity*zeta <= 1) have
// no defined bounding box extent; the function panics there, mirroring
// the paper's constraint that the sample rate can never be smaller
// than 1/C.
func CompensationSideFactor(capacity float64, zeta float64) float64 {
	if capacity <= 1 {
		panic("mbr: compensation requires page capacity > 1")
	}
	if zeta <= 0 || zeta > 1 {
		panic("mbr: sampling fraction must be in (0, 1]")
	}
	cz := capacity * zeta
	if cz <= 1 {
		panic("mbr: sampled page capacity must exceed 1 (sample rate below 1/C)")
	}
	// Reciprocal of the shrink factor.
	return ((cz + 1) * (capacity - 1)) / ((cz - 1) * (capacity + 1))
}
