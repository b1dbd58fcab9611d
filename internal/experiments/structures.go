package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hdidx/internal/balltree"
	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/gridfile"
	"hdidx/internal/query"
	"hdidx/internal/stats"
)

// Section 4.7 claims the prediction technique applies to every index
// structure that organizes data in fixed-capacity pages, listing the
// SS-tree, the SR-tree, the M-tree and the grid file among others. This
// experiment demonstrates it: the same sampling model predicts the R*-tree
// (rectangles, Theorem 1 compensation), the three ball trees (the
// sphere-analogue compensation, composed with Theorem 1 for the
// SR-tree's rectangles) and the grid file (no geometric compensation),
// on the same dataset and workload.

// StructureRow is one index structure's prediction outcome.
type StructureRow struct {
	Structure string
	Measured  float64
	Predicted float64
	RelErr    float64
}

// StructuresResult is the Section 4.7 generality experiment.
type StructuresResult struct {
	Dataset string
	Zeta    float64
	Rows    []StructureRow
}

// OtherStructures runs the basic sampling model against every index
// structure on a 16-dimensional clustered dataset. Moderate
// dimensionality is deliberate: the sphere compensation factor models
// within-page *ball* uniformity, and on KLT-like data whose effective
// dimensionality is far below the embedding one, that model (which
// uses the embedding dimensionality) under-grows sampled spheres —
// an honest limitation recorded in EXPERIMENTS.md. Rectangles, whose
// per-side compensation is dimension-free, do not share it.
func OtherStructures(opt Options) (StructuresResult, error) {
	opt = opt.withDefaults()
	spec := dataset.Spec{
		Name: "CLUSTERED16", N: 150000, Dim: 16,
		Clusters: 24, VarianceDecay: 0.92, ClusterStd: 0.1,
	}
	env := newEnvironment(spec, opt)
	zeta := basicZeta(opt.M, len(env.data), env.g)
	res := StructuresResult{Dataset: env.spec.Name, Zeta: zeta}

	// R*-tree (measured ground truth already in env).
	rtMeasured := stats.Mean(env.measured)
	rt, err := core.PredictBasic(env.data, zeta, true, env.g, env.spheres,
		rand.New(rand.NewSource(opt.Seed+300)), nil)
	if err != nil {
		return StructuresResult{}, fmt.Errorf("structures r*-tree: %w", err)
	}
	res.Rows = append(res.Rows, StructureRow{
		Structure: "VAMSplit R*-tree",
		Measured:  rtMeasured,
		Predicted: rt.Mean,
		RelErr:    stats.RelativeError(rt.Mean, rtMeasured),
	})

	// The ball trees. The SS- and SR-tree bound the pages of the
	// R*-tree's own VAMSplit partition; the M-tree, the metric-space
	// member, is built with the Ciaccia-Patella bulk loader (the
	// paper's reference [10]).
	bg := balltree.NewGeometry(env.g.Dim)
	for _, bt := range []struct {
		name string
		kind balltree.Kind
		seed int64 // of the prediction's generator
	}{{"SS-tree", balltree.SS, 301}, {"SR-tree", balltree.SR, 305}, {"M-tree", balltree.M, 304}} {
		// The M-tree draws its pivots from the seed; the others ignore it.
		tree := balltree.Build(bt.kind, env.data, bg.Params(bt.kind), opt.Seed+303)
		measured := stats.Mean(balltree.MeasureLeafAccesses(tree, env.spheres))
		pred, err := balltree.Predict(bt.kind, env.data, zeta, true, bg, env.spheres,
			rand.New(rand.NewSource(opt.Seed+bt.seed)))
		if err != nil {
			return StructuresResult{}, fmt.Errorf("structures %s: %w", bt.name, err)
		}
		res.Rows = append(res.Rows, StructureRow{
			Structure: bt.name,
			Measured:  measured,
			Predicted: pred.Mean,
			RelErr:    stats.RelativeError(pred.Mean, measured),
		})
	}

	// Grid file: a space-partitioning member of the Section 4.7 group.
	// Its page regions are cells, not bounding boxes, so the mini
	// index needs no compensation at all. Grid files only scale to
	// low/moderate dimensionality, so this row indexes the leading 6
	// KLT dimensions.
	const gfDims, gfCapacity = 6, 128
	proj := make([][]float64, len(env.data))
	for i, p := range env.data {
		proj[i] = p[:gfDims]
	}
	gfSpheres := make([]query.Sphere, len(env.spheres))
	for i, s := range env.spheres {
		gfSpheres[i] = query.Sphere{Center: s.Center[:gfDims], Radius: s.Radius}
	}
	gf, err := gridfile.Build(proj, gfCapacity)
	if err != nil {
		return StructuresResult{}, fmt.Errorf("structures grid file: %w", err)
	}
	gfMeasured := stats.Mean(gridfile.MeasureLeafAccesses(gf, gfSpheres))
	gfPred, err := gridfile.Predict(proj, zeta, gfCapacity, gfSpheres,
		rand.New(rand.NewSource(opt.Seed+302)))
	if err != nil {
		return StructuresResult{}, fmt.Errorf("structures grid file predict: %w", err)
	}
	res.Rows = append(res.Rows, StructureRow{
		Structure: "Grid file (6-d)",
		Measured:  gfMeasured,
		Predicted: gfPred.Mean,
		RelErr:    stats.RelativeError(gfPred.Mean, gfMeasured),
	})
	return res, nil
}

// String renders the comparison.
func (r StructuresResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 4.7 (extension) — sampling prediction across index structures (%s, zeta=%.2f)\n",
		r.Dataset, r.Zeta)
	fmt.Fprintf(&b, "%-18s %12s %12s %10s\n", "structure", "measured", "predicted", "rel.err")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %12.1f %12.1f %+9.1f%%\n",
			row.Structure, row.Measured, row.Predicted, row.RelErr*100)
	}
	return b.String()
}
