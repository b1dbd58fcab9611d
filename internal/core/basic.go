package core

import (
	"fmt"
	"math/rand"

	"hdidx/internal/dataset"
	"hdidx/internal/obs"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
)

// PredictBasic implements the unlimited-memory sampling model of
// Section 3: draw a sample of the given fraction, bulk-load a
// mini-index with the page capacity scaled by the same fraction (and
// the height forced to the full index's height for structural
// similarity), optionally grow the leaf pages by the compensation
// factor of Theorem 1, and count query-sphere/leaf intersections.
//
// The data and the query spheres are in memory; no I/O is charged.
// This is the model behind Figure 2 (relative error versus sample
// size, with and without compensation).
//
// Per-phase spans (sample draw, mini-index build, intersection
// counting) are recorded on tr; a nil tr disables tracing.
func PredictBasic(data [][]float64, zeta float64, compensate bool, g rtree.Geometry, spheres []query.Sphere, rng *rand.Rand, tr *obs.Trace) (Prediction, error) {
	if len(data) == 0 {
		return Prediction{}, fmt.Errorf("core: empty dataset")
	}
	if zeta <= 0 || zeta > 1 {
		return Prediction{}, fmt.Errorf("core: sample fraction %g outside (0, 1]", zeta)
	}
	capacity := float64(g.EffDataCapacity())
	if zeta < 1/capacity {
		return Prediction{}, fmt.Errorf("core: sample fraction %g below the 1/C limit %g", zeta, 1/capacity)
	}
	topo := rtree.NewTopology(len(data), g)
	m := int(float64(len(data))*zeta + 0.5)
	if m < 1 {
		m = 1
	}
	sp := tr.Span(PhaseSampleDraw)
	sample := dataset.SampleExact(data, m, rng)
	sp.End()
	sp = tr.Span(PhaseMiniBuild)
	mini := rtree.Build(sample, rtree.ParamsForGeometry(g).Scaled(zeta, topo.Height))
	sp.End()

	p := Prediction{
		Method:     "basic",
		SigmaUpper: zeta,
		LeafRects:  mini.LeafRects(),
	}
	if compensate {
		p.LeafRects = growAll(p.LeafRects, safeCompensation(capacity, zeta))
	}
	sp = tr.Span(PhaseIntersect)
	countIntersections(&p, spheres)
	sp.End()
	p.Phases = tr.Phases()
	return p, nil
}
