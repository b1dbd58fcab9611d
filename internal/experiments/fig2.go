package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/par"
	"hdidx/internal/stats"
)

// Fig2Row is one point of Figure 2: the relative prediction error of
// the basic sampling model at one sample size, with and without the
// page-shrinkage compensation of Theorem 1.
type Fig2Row struct {
	SampleFraction   float64
	ErrCompensated   float64
	ErrUncompensated float64
}

// Fig2Result reproduces Figure 2 (relative error for different sample
// sizes, COLOR64 dataset, 500 21-NN queries).
type Fig2Result struct {
	Dataset      string
	MeasuredMean float64
	Rows         []Fig2Row
}

// Fig2 runs the basic-model sample-size sweep of Figure 2 on the
// COLOR64 stand-in.
func Fig2(opt Options) (Fig2Result, error) {
	opt = opt.withDefaults()
	env := sharedEnvironment(dataset.Color64, opt)
	measured := stats.Mean(env.measured)

	minZeta := 1.0 / float64(env.g.EffDataCapacity())
	var fractions []float64
	for _, zeta := range []float64{0.04, 0.06, 0.10, 0.15, 0.25, 0.50, 0.75, 1.00} {
		if zeta >= minZeta {
			fractions = append(fractions, zeta)
		}
	}
	// Every sample size is an independent pair of basic-model runs on
	// the shared in-memory environment; each task recreates the same
	// private RNGs the sequential loop used per row.
	res := Fig2Result{Dataset: env.spec.Name, MeasuredMean: measured, Rows: make([]Fig2Row, len(fractions))}
	err := par.FirstError(len(fractions), func(i int) error {
		zeta := fractions[i]
		rng := rand.New(rand.NewSource(opt.Seed + 7))
		comp, err := core.PredictBasic(env.data, zeta, true, env.g, env.spheres, rng, nil)
		if err != nil {
			return fmt.Errorf("fig2 zeta=%g compensated: %w", zeta, err)
		}
		rng = rand.New(rand.NewSource(opt.Seed + 7))
		raw, err := core.PredictBasic(env.data, zeta, false, env.g, env.spheres, rng, nil)
		if err != nil {
			return fmt.Errorf("fig2 zeta=%g uncompensated: %w", zeta, err)
		}
		res.Rows[i] = Fig2Row{
			SampleFraction:   zeta,
			ErrCompensated:   stats.RelativeError(comp.Mean, measured),
			ErrUncompensated: stats.RelativeError(raw.Mean, measured),
		}
		return nil
	})
	if err != nil {
		return Fig2Result{}, err
	}
	return res, nil
}

// String renders the figure as a table.
func (r Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — relative error vs. sample size (%s, measured mean %.1f accesses/query)\n", r.Dataset, r.MeasuredMean)
	fmt.Fprintf(&b, "%-10s %15s %17s\n", "sample", "err(compensated)", "err(uncompensated)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%9.0f%% %14.1f%% %16.1f%%\n",
			row.SampleFraction*100, row.ErrCompensated*100, row.ErrUncompensated*100)
	}
	return b.String()
}
