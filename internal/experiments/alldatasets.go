package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/par"
	"hdidx/internal/rtree"
	"hdidx/internal/stats"
)

// Section 5 evaluates all five datasets of Table 1 and reports that
// the approach "gave reasonable predictions even for these [360- and
// 617-dimensional] datasets with a relative error between -8% and
// +0.7%". This driver sweeps every stand-in. The very high-dimensional
// sets have pathological page geometry (2-4 points per 8 KB page and
// directory fanout 2), where the restricted-memory split may not
// exist; the driver then falls back to the basic model, as the paper's
// Section 3 machinery suffices once the sample fits in memory (their
// N of 6,500-7,800 points is far below M anyway).

// DatasetRow is one dataset's outcome.
type DatasetRow struct {
	Name     string
	N        int
	Dim      int
	Method   string
	Measured float64
	RelErr   float64
}

// AllDatasetsResult sweeps the five Table 1 stand-ins.
type AllDatasetsResult struct {
	Rows []DatasetRow
}

// AllDatasets predicts the 21-NN workload on every Table 1 stand-in.
func AllDatasets(opt Options) (AllDatasetsResult, error) {
	opt = opt.withDefaults()
	specs := []dataset.Spec{
		dataset.Color64, dataset.Texture48, dataset.Texture60,
		dataset.Isolet617, dataset.Stock360,
	}
	// Each dataset is a fully independent environment + prediction;
	// fan the five out across the pool.
	res := AllDatasetsResult{Rows: make([]DatasetRow, len(specs))}
	err := runTasks(len(specs), func(i int) error {
		spec := specs[i]
		o := opt
		if spec.N < 20000 {
			// The small high-dimensional sets run at full cardinality,
			// as in the paper; scaling them down would leave too few
			// points per page. M = 10,000 would exceed their N and
			// make the sample the whole dataset, so the memory is
			// capped at half the cardinality to keep the prediction
			// non-degenerate.
			o.Scale = 1
			o.M = spec.N / 2
		}
		env := sharedEnvironment(spec, o)
		measured := stats.Mean(env.measured)
		topo := rtree.NewTopology(len(env.data), env.g)

		var predicted float64
		var method string
		if topo.Height >= 3 && o.M < len(env.data) {
			d, pf := env.taskFile()
			p, err := core.PredictResampled(pf, env.config(0, 500, d))
			if err != nil {
				return fmt.Errorf("alldatasets %s: %w", spec.Name, err)
			}
			predicted, method = p.Mean, "resampled"
		} else {
			zeta := basicZeta(o.M, len(env.data), env.g)
			p, err := core.PredictBasic(env.data, zeta, true, env.g, env.spheres,
				rand.New(rand.NewSource(o.Seed+501)), par.Pool{}, nil)
			if err != nil {
				return fmt.Errorf("alldatasets %s basic: %w", spec.Name, err)
			}
			predicted, method = p.Mean, "basic"
		}
		res.Rows[i] = DatasetRow{
			Name:     env.spec.Name,
			N:        len(env.data),
			Dim:      env.g.Dim,
			Method:   method,
			Measured: measured,
			RelErr:   stats.RelativeError(predicted, measured),
		}
		return nil
	})
	if err != nil {
		return AllDatasetsResult{}, err
	}
	return res, nil
}

// String renders the sweep.
func (r AllDatasetsResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Section 5 — prediction across all Table 1 datasets")
	fmt.Fprintf(&b, "%-16s %8s %5s %-10s %10s %9s\n", "dataset", "N", "dim", "method", "measured", "rel.err")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %8d %5d %-10s %10.1f %+8.1f%%\n",
			row.Name, row.N, row.Dim, row.Method, row.Measured, row.RelErr*100)
	}
	return b.String()
}
