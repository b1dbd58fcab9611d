package experiments

import (
	"fmt"
	"strings"

	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/query"
	"hdidx/internal/stats"
)

// Section 3 notes that the sampling technique "can also be applied to
// range queries": only the query regions change. This driver sweeps
// range radii on the TEXTURE60 stand-in and compares measured and
// resampled-predicted leaf accesses — an extension experiment beyond
// the paper's figures.

// RangeRow is one radius of the range-query sweep.
type RangeRow struct {
	Radius    float64
	Measured  float64
	Predicted float64
	RelErr    float64
}

// RangeResult is the range-query prediction experiment.
type RangeResult struct {
	Dataset string
	Rows    []RangeRow
}

// RangeQueries measures and predicts range workloads at the given
// radii (defaults sweep fractions of the mean 21-NN radius, so the
// selectivities bracket the k-NN regime).
func RangeQueries(opt Options, radii []float64) (RangeResult, error) {
	opt = opt.withDefaults()
	env := sharedEnvironment(dataset.Texture60, opt)
	if len(radii) == 0 {
		var mean float64
		for _, s := range env.spheres {
			mean += s.Radius
		}
		mean /= float64(len(env.spheres))
		radii = []float64{mean * 0.5, mean * 0.75, mean, mean * 1.5, mean * 2}
	}
	for _, r := range radii {
		if r <= 0 {
			return RangeResult{}, fmt.Errorf("range: radius %g must be positive", r)
		}
	}
	// Each radius is an independent measure+predict pair; the rows run
	// as pool tasks sharing the environment's dataset and ground-truth
	// tree read-only, each predicting against its own staged disk.
	res := RangeResult{Dataset: env.spec.Name, Rows: make([]RangeRow, len(radii))}
	err := runTasks(len(radii), func(i int) error {
		r := radii[i]
		spheres := make([]query.Sphere, len(env.queryPoints))
		for j, qp := range env.queryPoints {
			spheres[j] = query.Sphere{Center: qp, Radius: r}
		}
		measured := stats.Mean(query.MeasureLeafAccesses(env.tree, spheres))

		d, pf := env.taskFile()
		cfg := env.config(0, 200+int64(i), d)
		cfg.FixedRadius = r
		p, err := core.PredictResampled(pf, cfg)
		if err != nil {
			return fmt.Errorf("range radius %g: %w", r, err)
		}
		res.Rows[i] = RangeRow{
			Radius:    r,
			Measured:  measured,
			Predicted: p.Mean,
			RelErr:    stats.RelativeError(p.Mean, measured),
		}
		return nil
	})
	if err != nil {
		return RangeResult{}, err
	}
	return res, nil
}

// String renders the sweep.
func (r RangeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Range queries (extension) — measured vs. predicted leaf accesses (%s)\n", r.Dataset)
	fmt.Fprintf(&b, "%10s %12s %12s %10s\n", "radius", "measured", "predicted", "rel.err")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10.4f %12.1f %12.1f %+9.1f%%\n",
			row.Radius, row.Measured, row.Predicted, row.RelErr*100)
	}
	return b.String()
}
