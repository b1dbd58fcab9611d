package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/mbr"
	"hdidx/internal/par"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
	"hdidx/internal/stats"
)

// The paper's problem statement covers index structures "with a given
// storage utilization". A dynamically grown R*-tree is the canonical
// case where that utilization is not the bulk loader's ~95% but
// whatever the R* insertion and split heuristics settle at (classically
// 60-75%). This extension experiment grows a real R*-tree by insertion,
// measures its utilization, and feeds exactly that number into the
// sampling predictor's geometry — reproducing the paper's parameteri-
// zation end to end.

// DynamicResult is the dynamic-index prediction experiment.
type DynamicResult struct {
	Dataset     string
	N           int
	Utilization float64
	LeavesReal  int
	LeavesModel int
	Measured    float64
	// Predicted is the structurally similar prediction: a mini-index
	// grown by the same R* insertion algorithm on the sample.
	Predicted float64
	RelErr    float64
	// PredictedBulkMini is the ablation: a bulk-loaded mini-index at
	// the measured utilization. It misses the dynamic tree's leaf
	// overlap and underestimates — evidence for the paper's
	// structural-similarity requirement ("use the same construction
	// algorithm").
	PredictedBulkMini float64
	RelErrBulkMini    float64
}

// DynamicIndex grows an R*-tree by insertion on a moderate-dimensional
// clustered dataset and predicts its k-NN page accesses with the basic
// sampling model at the measured utilization.
func DynamicIndex(opt Options) (DynamicResult, error) {
	opt = opt.withDefaults()
	spec := dataset.Spec{
		Name: "CLUSTERED12", N: 120000, Dim: 12,
		Clusters: 20, VarianceDecay: 0.9, ClusterStd: 0.1,
	}
	scaled := spec
	if opt.Scale != 1 {
		scaled = spec.Scaled(opt.Scale)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	data := scaled.Generate(rng).Points
	k := opt.K
	if k > len(data) {
		k = len(data)
	}
	queryPoints := make([][]float64, opt.Queries)
	for i := range queryPoints {
		queryPoints[i] = data[rng.Intn(len(data))]
	}
	spheres := query.ComputeSpheres(data, queryPoints, k)

	// Grow the index dynamically and measure.
	g := rtree.Geometry{Dim: scaled.Dim, PageBytes: 8192, Utilization: 1}
	dyn := rtree.NewDynamic(g)
	for _, p := range data {
		dyn.Insert(p)
	}
	measured := stats.Mean(query.MeasureLeafAccesses(&dyn.Tree, spheres))
	util := dyn.AverageLeafOccupancy()

	// Structurally similar prediction: grow a mini-index with the SAME
	// R* insertion algorithm on a Bernoulli sample (order-preserving,
	// so the insertion sequence statistics match), leaf capacity
	// scaled by the sampling fraction, directory capacity unchanged;
	// then grow the mini leaves by the Theorem 1 factor at the
	// dynamic tree's effective page occupancy.
	pg := rtree.Geometry{Dim: scaled.Dim, PageBytes: 8192, Utilization: util}
	zeta := basicZeta(opt.M, len(data), pg)
	sampleRng := rand.New(rand.NewSource(opt.Seed + 400))
	miniLeafCap := int(float64(g.MaxDataCapacity())*zeta + 0.5)
	if miniLeafCap < 2 {
		miniLeafCap = 2
	}
	mini := rtree.NewDynamicCustom(scaled.Dim, miniLeafCap, g.MaxDirCapacity())
	for _, p := range data {
		if sampleRng.Float64() < zeta {
			mini.Insert(p)
		}
	}
	effCap := util * float64(g.MaxDataCapacity())
	grow := mbr.CompensationSideFactor(effCap, zeta)
	var sum float64
	rects := mini.LeafRects()
	for i := range rects {
		rects[i] = rects[i].GrowCentered(grow)
	}
	for _, s := range spheres {
		sum += float64(query.CountIntersections(rects, s))
	}
	predicted := sum / float64(len(spheres))

	// Ablation: a bulk-loaded mini-index at the measured utilization.
	pb, err := core.PredictBasic(data, zeta, true, pg, spheres,
		rand.New(rand.NewSource(opt.Seed+401)), par.Pool{}, nil)
	if err != nil {
		return DynamicResult{}, fmt.Errorf("dynamic: %w", err)
	}
	return DynamicResult{
		Dataset:           scaled.Name,
		N:                 len(data),
		Utilization:       util,
		LeavesReal:        dyn.NumLeaves(),
		LeavesModel:       rtree.NewTopology(len(data), pg).Leaves(),
		Measured:          measured,
		Predicted:         predicted,
		RelErr:            stats.RelativeError(predicted, measured),
		PredictedBulkMini: pb.Mean,
		RelErrBulkMini:    stats.RelativeError(pb.Mean, measured),
	}, nil
}

// String renders the experiment.
func (r DynamicResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dynamic R*-tree (extension) — prediction at measured utilization (%s, N=%d)\n", r.Dataset, r.N)
	fmt.Fprintf(&b, "measured utilization: %.1f%% (leaves: %d real vs %d modeled)\n",
		r.Utilization*100, r.LeavesReal, r.LeavesModel)
	fmt.Fprintf(&b, "measured:               %.1f leaf accesses/query\n", r.Measured)
	fmt.Fprintf(&b, "predicted (dyn. mini):  %.1f (%+.1f%%)\n", r.Predicted, r.RelErr*100)
	fmt.Fprintf(&b, "predicted (bulk mini):  %.1f (%+.1f%%)  <- structural-similarity ablation\n",
		r.PredictedBulkMini, r.RelErrBulkMini*100)
	return b.String()
}
