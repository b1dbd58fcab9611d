package experiments

import (
	"fmt"
	"strings"

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
	// TEXTURE60's dataset and workload, shared read-only; each page
	// size is an independent build+measure+predict task on the pool.
	// Only the row computations fan out — the best-of scan below stays
	// on the caller so its ties resolve in row order, as sequentially.
	env := sharedEnvironment(dataset.Texture60, opt)
	res := Fig13Result{Dataset: env.spec.Name, Rows: make([]Fig13Row, len(pageKBs))}
	err := par.FirstError(len(pageKBs), func(i int) error {
		kb := pageKBs[i]
		g := rtree.Geometry{Dim: env.g.Dim, PageBytes: kb * 1024, Utilization: rtree.DefaultUtilization}

		// Measured: full in-memory index, leaf accesses per query.
		tree := rtree.Build(env.data, rtree.ParamsForGeometry(g))
		measured := stats.Mean(query.MeasureLeafAccesses(tree, env.spheres))

		// Predicted over the dataset stored with this page size. Large
		// pages flatten the tree below the upper/lower split, where the
		// basic model stands in for the resampled one.
		predicted, _, err := env.predictMean(g, opt.M, opt.Seed+int64(kb), opt.Seed+int64(kb))
		if err != nil {
			return fmt.Errorf("fig13 page=%dKB: %w", kb, err)
		}

		params := disk.DefaultParams().WithPageBytes(kb * 1024)
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
