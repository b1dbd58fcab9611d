package experiments

import (
	"fmt"
	"strings"

	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/disk"
	"hdidx/internal/rtree"
	"hdidx/internal/stats"
)

// Table3Row is one row of Table 3: a prediction method with its
// parameters, signed relative error, and measured I/O.
type Table3Row struct {
	Method     string
	HUpper     int
	SigmaUpper float64
	SigmaLower float64
	RelErr     float64
	IO         disk.Counters
	IOSeconds  float64
	Mean       float64
	// Pearson correlates per-query prediction with measurement
	// (Figures 11/12 summarize this per configuration).
	Pearson float64
}

// Table3Result reproduces Table 3: relative error and I/O cost of the
// on-disk measurement and the resampled/cutoff predictions on the
// TEXTURE60 stand-in.
type Table3Result struct {
	Dataset      string
	N            int
	M            int
	Height       int
	MeasuredMean float64
	// OnDiskBuild and OnDiskQueries split the on-disk cost as
	// "building cost + query cost".
	OnDiskBuild   disk.Counters
	OnDiskQueries disk.Counters
	Rows          []Table3Row
}

// Table3 runs the prediction-method comparison of Table 3 over the
// admissible h_upper values.
func Table3(opt Options) (Table3Result, error) {
	opt = opt.withDefaults()
	env := sharedEnvironment(dataset.Texture60, opt)
	return table3On(env)
}

// table3On runs the Table 3 protocol on an arbitrary environment (the
// uniform-data sanity check of Section 5.2 reuses it). The on-disk
// measurement and every prediction row are independent, so all of them
// run as concurrent tasks on the worker pool; each task stages its own
// disk and derives its own RNG, so the rows are exactly the ones the
// sequential loop produced.
func table3On(env *environment) (Table3Result, error) {
	measured := stats.Mean(env.measured)
	topo := rtree.NewTopology(len(env.data), env.g)

	res := Table3Result{
		Dataset:      env.spec.Name,
		N:            len(env.data),
		M:            env.opt.M,
		Height:       topo.Height,
		MeasuredMean: measured,
	}

	min, max, err := topo.HUpperBounds(env.opt.M, true)
	if err != nil {
		return Table3Result{}, fmt.Errorf("table3: %w", err)
	}
	if _, _, err := topo.HUpperBounds(env.opt.M, false); err != nil {
		return Table3Result{}, fmt.Errorf("table3 cutoff bounds: %w", err)
	}

	// Task layout: [0, span) resampled rows, [span, 2*span) cutoff
	// rows, last task the on-disk build+query measurement.
	span := max - min + 1
	res.Rows = make([]Table3Row, 2*span)
	err = runTasks(2*span+1, func(i int) error {
		if i == 2*span {
			res.OnDiskBuild, res.OnDiskQueries = env.measureOnDiskIO()
			return nil
		}
		h := min + i%span
		d, pf := env.taskFile()
		if i < span {
			p, err := core.PredictResampled(pf, env.config(h, int64(h), d))
			if err != nil {
				return fmt.Errorf("table3 resampled h=%d: %w", h, err)
			}
			res.Rows[i] = predictionRow(p, env.measured, measured)
			return nil
		}
		p, err := core.PredictCutoff(pf, env.config(h, 100+int64(h), d))
		if err != nil {
			return fmt.Errorf("table3 cutoff h=%d: %w", h, err)
		}
		res.Rows[i] = predictionRow(p, env.measured, measured)
		return nil
	})
	if err != nil {
		return Table3Result{}, err
	}
	return res, nil
}

func predictionRow(p core.Prediction, measuredPerQuery []float64, measuredMean float64) Table3Row {
	return Table3Row{
		Method:     p.Method,
		HUpper:     p.HUpper,
		SigmaUpper: p.SigmaUpper,
		SigmaLower: p.SigmaLower,
		RelErr:     stats.RelativeError(p.Mean, measuredMean),
		IO:         p.IO,
		IOSeconds:  p.IOSeconds,
		Mean:       p.Mean,
		Pearson:    stats.Pearson(p.PerQuery, measuredPerQuery),
	}
}

// String renders the table in the paper's layout.
func (r Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — relative error and I/O cost (%s, N=%d, M=%d, height=%d)\n",
		r.Dataset, r.N, r.M, r.Height)
	fmt.Fprintf(&b, "measured: %.1f leaf accesses/query\n", r.MeasuredMean)
	params := disk.DefaultParams()
	onDiskCost := r.OnDiskBuild.Add(r.OnDiskQueries).CostSeconds(params)
	fmt.Fprintf(&b, "%-42s %8s %9s+%-9s %10s+%-10s %10s\n",
		"method", "rel.err", "seeks", "", "transfers", "", "I/O cost")
	fmt.Fprintf(&b, "%-42s %7.0f%% %9d+%-9d %10d+%-10d %9.3fs\n",
		"On-disk", 0.0,
		r.OnDiskBuild.Seeks, r.OnDiskQueries.Seeks,
		r.OnDiskBuild.Transfers, r.OnDiskQueries.Transfers,
		onDiskCost)
	for _, row := range r.Rows {
		label := fmt.Sprintf("%s (h=%d, su=%.4f", capitalize(row.Method), row.HUpper, row.SigmaUpper)
		if row.Method == "resampled" {
			label += fmt.Sprintf(", sl=%.4f", row.SigmaLower)
		}
		label += ")"
		fmt.Fprintf(&b, "%-42s %+6.0f%% %9d %19d %21.3fs  r=%.2f\n",
			label, row.RelErr*100, row.IO.Seeks, row.IO.Transfers, row.IOSeconds, row.Pearson)
	}
	return b.String()
}

// CorrelationResult reproduces Figures 11 and 12: per-query predicted
// versus measured accesses for the resampled predictor.
type CorrelationResult struct {
	Dataset   string
	M         int
	HUpper    int
	Measured  []float64
	Predicted []float64
	Pearson   float64
}

// Correlation runs the resampled predictor once and pairs its
// per-query predictions with the measurements. hUpper = 0 selects the
// automatic choice. Memory sizes too small to admit any h_upper under
// the Section 4.5.1 bounds are grown by 50% steps until one is
// admissible (the result's M reports the value used).
func Correlation(opt Options, hUpper int) (CorrelationResult, error) {
	opt = opt.withDefaults()
	// Grow M to an admissible value before standing up the environment:
	// the bounds depend only on the (known) scaled cardinality and page
	// geometry, and resolving M first keeps the cached environment
	// immutable — and lets runs whose M needed no growth share the
	// environment with table3.
	scaled := dataset.Texture60
	if opt.Scale != 1 {
		scaled = scaled.Scaled(opt.Scale)
	}
	topo := rtree.NewTopology(scaled.N, rtree.NewGeometry(scaled.Dim))
	for attempt := 0; attempt < 12; attempt++ {
		if _, _, err := topo.HUpperBounds(opt.M, true); err == nil {
			break
		}
		opt.M = opt.M * 3 / 2
	}
	env := sharedEnvironment(dataset.Texture60, opt)
	d, pf := env.taskFile()
	p, err := core.PredictResampled(pf, env.config(hUpper, 42, d))
	if err != nil {
		return CorrelationResult{}, fmt.Errorf("correlation: %w", err)
	}
	return CorrelationResult{
		Dataset:   env.spec.Name,
		M:         opt.M,
		HUpper:    p.HUpper,
		Measured:  env.measured,
		Predicted: p.PerQuery,
		Pearson:   stats.Pearson(p.PerQuery, env.measured),
	}, nil
}

// String renders the correlation diagram as a summary plus sample
// pairs (a terminal cannot scatter-plot 500 points; the Pearson
// coefficient carries the figure's message).
func (r CorrelationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figures 11/12 — correlation diagram (%s, M=%d, h_upper=%d)\n", r.Dataset, r.M, r.HUpper)
	fmt.Fprintf(&b, "Pearson r = %.3f over %d queries\n", r.Pearson, len(r.Measured))
	fmt.Fprintf(&b, "%10s %10s\n", "measured", "predicted")
	step := len(r.Measured) / 10
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.Measured); i += step {
		fmt.Fprintf(&b, "%10.0f %10.0f\n", r.Measured[i], r.Predicted[i])
	}
	return b.String()
}
