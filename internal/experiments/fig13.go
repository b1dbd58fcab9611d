package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/disk"
	"hdidx/internal/par"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
	"hdidx/internal/stats"
)

// Fig13Row is one page size of the tuning experiment of Section 6.1.
type Fig13Row struct {
	PageKB            int
	MeasuredAccesses  float64
	PredictedAccesses float64
	// Per-query I/O cost in seconds assuming every access is random
	// (one seek plus the page transfer), as the paper does.
	MeasuredSeconds  float64
	PredictedSeconds float64
}

// Fig13Result reproduces Figure 13: determining the optimal page size
// on the LANDSAT (TEXTURE60) dataset.
type Fig13Result struct {
	Dataset         string
	Rows            []Fig13Row
	BestMeasuredKB  int
	BestPredictedKB int
}

// Fig13 sweeps the index page size, measuring the query cost on a full
// in-memory build and predicting it with the resampled model, and
// reports where each curve bottoms out.
func Fig13(opt Options, pageKBs []int) (Fig13Result, error) {
	opt = opt.withDefaults()
	if len(pageKBs) == 0 {
		pageKBs = []int{8, 16, 32, 64, 128, 256}
	}
	// One dataset and one workload shared across page sizes.
	spec := dataset.Texture60
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
	indices := make([]int, opt.Queries)
	queryPoints := make([][]float64, opt.Queries)
	for i := range indices {
		indices[i] = rng.Intn(len(data))
		queryPoints[i] = data[indices[i]]
	}
	spheres := query.ComputeSpheres(data, queryPoints, k)

	// One dataset and one workload, shared read-only; each page size
	// is an independent build+measure+predict task on the pool. Only
	// the row computations fan out — the best-of scan below stays on
	// the caller so its ties resolve in row order, as sequentially.
	res := Fig13Result{Dataset: scaled.Name, Rows: make([]Fig13Row, len(pageKBs))}
	err := runTasks(len(pageKBs), func(i int) error {
		kb := pageKBs[i]
		params := disk.DefaultParams().WithPageBytes(kb * 1024)
		g := rtree.Geometry{Dim: len(data[0]), PageBytes: kb * 1024, Utilization: rtree.DefaultUtilization}

		// Measured: full in-memory index, leaf accesses per query.
		cp := make([][]float64, len(data))
		copy(cp, data)
		tree := rtree.Build(cp, rtree.ParamsForGeometry(g))
		measured := stats.Mean(query.MeasureLeafAccesses(tree, spheres))

		// Predicted: the resampled model over the dataset stored with
		// this page size. Large pages flatten the tree below height 3,
		// where no upper/lower split exists — there the basic sampling
		// model (Section 3) applies directly.
		var predicted float64
		if rtree.NewTopology(len(data), g).Height >= 3 {
			d := disk.New(params)
			pf := disk.NewPointFile(d, len(data[0]), len(data))
			pf.AppendAll(data)
			d.ResetCounters()
			cfg := core.Config{
				Geometry:     g,
				M:            opt.M,
				K:            k,
				QueryIndices: indices,
				Rng:          rand.New(rand.NewSource(opt.Seed + int64(kb))),
			}
			p, err := core.PredictResampled(pf, cfg)
			if err != nil {
				return fmt.Errorf("fig13 page=%dKB: %w", kb, err)
			}
			predicted = p.Mean
		} else {
			zeta := basicZeta(opt.M, len(data), g)
			p, err := core.PredictBasic(data, zeta, true, g, spheres,
				rand.New(rand.NewSource(opt.Seed+int64(kb))), par.Pool{}, nil)
			if err != nil {
				return fmt.Errorf("fig13 page=%dKB basic: %w", kb, err)
			}
			predicted = p.Mean
		}

		perAccess := params.SeekSeconds + params.XferSeconds
		res.Rows[i] = Fig13Row{
			PageKB:            kb,
			MeasuredAccesses:  measured,
			PredictedAccesses: predicted,
			MeasuredSeconds:   measured * perAccess,
			PredictedSeconds:  predicted * perAccess,
		}
		return nil
	})
	if err != nil {
		return Fig13Result{}, err
	}
	bestMeasured, bestPredicted := 0.0, 0.0
	for _, row := range res.Rows {
		if res.BestMeasuredKB == 0 || row.MeasuredSeconds < bestMeasured {
			res.BestMeasuredKB, bestMeasured = row.PageKB, row.MeasuredSeconds
		}
		if res.BestPredictedKB == 0 || row.PredictedSeconds < bestPredicted {
			res.BestPredictedKB, bestPredicted = row.PageKB, row.PredictedSeconds
		}
	}
	return res, nil
}

// String renders the page-size curve.
func (r Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13 — determining the optimal page size (%s)\n", r.Dataset)
	fmt.Fprintf(&b, "%8s %12s %12s %14s %14s\n",
		"page KB", "meas.pages", "pred.pages", "meas. s/query", "pred. s/query")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %12.1f %12.1f %14.4f %14.4f\n",
			row.PageKB, row.MeasuredAccesses, row.PredictedAccesses,
			row.MeasuredSeconds, row.PredictedSeconds)
	}
	fmt.Fprintf(&b, "optimal page size: measured %d KB, predicted %d KB\n",
		r.BestMeasuredKB, r.BestPredictedKB)
	return b.String()
}
