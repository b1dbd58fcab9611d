package core

import (
	"hdidx/internal/disk"
	"hdidx/internal/mbr"
)

// PredictCutoff implements the cutoff index tree of Section 4.3.
// It builds the upper tree on an M-point sample and then predicts each
// lower tree purely from the geometry of the grown upper leaf pages,
// assuming uniformity inside each page and replaying the maximum-
// variance splits the bulk loader would perform. Beyond reading the
// query points and one dataset scan it incurs no I/O, making it the
// fastest — and least consistent — of the predictors.
func PredictCutoff(pf *disk.PointFile, cfg Config) (Prediction, error) {
	d := pf.File().Disk()
	before := d.Counters()

	up, err := buildUpper(pf, cfg, false)
	if err != nil {
		return Prediction{}, err
	}

	// (6)-(7) Derive the lower tree leaf geometry from each grown
	// upper leaf page; no further I/O.
	sp := cfg.Trace.Span(PhaseLowerDerive)
	leaves := make([]mbr.Rect, 0, up.topo.Leaves())
	for _, box := range up.grownLeaves {
		leaves = append(leaves, splitBoxToLeaves(box, up.topo, up.leafLevel)...)
	}
	sp.End()

	p := Prediction{
		Method:      "cutoff",
		HUpper:      up.hUpper,
		SigmaUpper:  up.sigmaUpper,
		UpperLeaves: len(up.grownLeaves),
		LeafRects:   leaves,
		IO:          d.Counters().Sub(before),
	}
	p.IOSeconds = p.IO.CostSeconds(d.Params())
	sp = cfg.Trace.Span(PhaseIntersect)
	countIntersections(&p, up.spheres, cfg.pool())
	sp.End()
	p.Phases = cfg.Trace.Phases()
	return p, nil
}
