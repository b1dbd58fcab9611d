package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"hdidx"
	"hdidx/internal/dataset"
)

// predictSpec is the paper's own pipeline: the resampled predictor
// estimating the leaf accesses of a density-biased k-NN workload,
// checked against the measured ground truth.
type predictSpec struct {
	name    string
	scale   float64 // TEXTURE60 stand-in cardinality scale
	memory  int     // points that fit in memory (EstimateOptions.Memory)
	queries int
	setups  int
	// minEstimates runs at least this many estimates even when the
	// measured time is up.
	minEstimates int
}

func (w predictSpec) run(rc runCtx) (Result, error) {
	r := Result{Workload: w.name}
	points := dataset.Texture60.Scaled(w.scale).Generate(rand.New(rand.NewSource(dataSeed))).Points
	opts := hdidx.EstimateOptions{K: k, Queries: w.queries, Memory: w.memory, Seed: rc.seed}
	traced := rc.spans != nil

	// Set-up is the ground truth: build the full index and measure the
	// workload on it.
	var p *hdidx.Predictor
	var truth float64
	var setupS []float64
	for i := 0; i < w.setups; i++ {
		runtime.GC()
		// Each set-up gets its own copy of the point list:
		// MeasureKNNAccesses bulk-loads the predictor's slice in place,
		// reordering it, and the next set-up would draw other queries.
		own := append([][]float64(nil), points...)
		t0 := time.Now()
		pi, err := hdidx.NewPredictor(own)
		if err != nil {
			return r, fmt.Errorf("NewPredictor: %w", err)
		}
		gt, err := pi.MeasureKNNAccesses(opts)
		if err != nil {
			return r, fmt.Errorf("MeasureKNNAccesses: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i > 0 && gt != truth {
			return r, fmt.Errorf("gate: ground truth %v on set-up %d, %v before", gt, i, truth)
		}
		p, truth = pi, gt
	}

	var ests []hdidx.Estimate
	var walls []time.Duration
	var tracedWalls, untracedWalls []float64
	start := time.Now()
	deadline := start.Add(rc.measured)
	for i := 0; len(ests) < w.minEstimates || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		est, err := p.EstimateKNN(hdidx.MethodResampled, opts)
		if err != nil {
			return r, fmt.Errorf("EstimateKNN: %w", err)
		}
		if traced && i%2 == 0 {
			id := rc.spans.newID()
			rc.spans.put(id, 0, id, "facade.estimate", t0, time.Now())
		}
		wall := time.Since(t0)
		if traced && i%2 == 0 {
			tracedWalls = append(tracedWalls, wall.Seconds())
		} else {
			untracedWalls = append(untracedWalls, wall.Seconds())
		}
		ests = append(ests, est)
		walls = append(walls, wall)
	}
	elapsed := time.Since(start)
	rss := peakRSSMB() // before the replay and the bookkeeping
	r.Attempted = len(ests)
	if err := samePrediction(ests); err != nil {
		return r, err
	}
	est := ests[0]

	ms := durs(walls, time.Millisecond)
	if !traced {
		r.headline("setup_s", median(setupS), "s", lower, 0.25)
		r.withSamples(len(setupS), 0.5)
	}
	r.headline("p50_ms", quantile(ms, 0.5), "ms", lower, 0.25)
	r.withSamples(len(ms), 0.5)
	r.headline("capacity_per_s", float64(len(ests))/elapsed.Seconds(), "1/s", higher, 0.25)
	r.withSamples(len(ests), 0)
	r.e2e("predict_s", quantile(ms, 0.5)/1000, "s", lower, 0.10)
	r.withSamples(len(ms), 0.5)
	r.e2e("predict_io_s", est.PredictionIOSeconds, "s", lower, 0)
	r.e2e("predict_relerr_pct", 100*math.Abs(est.MeanAccesses-truth)/truth, "%", lower, 0)

	// The core layer reports its phases with every estimate; take each
	// phase's median over the estimates, and the median of what no phase
	// covers.
	var seeks, transfers int64
	for _, ph := range est.Phases {
		seeks += ph.Seeks
		transfers += ph.Transfers
		var phaseMS []float64
		for _, e := range ests {
			phaseMS = append(phaseMS, phaseWall(e, ph.Name).Seconds()*1000)
		}
		r.layer("core."+strings.ReplaceAll(ph.Name, "/", ".")+"_ms", median(phaseMS), "ms")
	}
	var gap []float64
	for i, e := range ests {
		covered := time.Duration(0)
		for _, ph := range e.Phases {
			covered += ph.Wall
		}
		gap = append(gap, (walls[i]-covered).Seconds()*1000)
	}
	r.layer("core.unattributed_ms", median(gap), "ms")
	r.layer("disk.seeks", float64(seeks), "count")
	r.layer("disk.transfers", float64(transfers), "count")

	if traced {
		r.layer("unattributed_p50_ms", median(gap), "ms")
		if err := replayPredict(rc, w, points, opts, truth, &r); err != nil {
			return r, err
		}
		observeBench(&r)
		a, b := median(tracedWalls), median(untracedWalls)
		r.layer("trace.overhead_pct", 100*(a-b)/b, "%")
	}
	r.headline("peak_rss_mb", rss, "MB", lower, 0.25)
	r.Correct = true
	return r, nil
}

func phaseWall(e hdidx.Estimate, name string) time.Duration {
	for _, ph := range e.Phases {
		if ph.Name == name {
			return ph.Wall
		}
	}
	return 0
}

// samePrediction is the predictor's gate: every estimate with the same
// seed must predict the same accesses at the same simulated I/O, phase
// by phase.
func samePrediction(ests []hdidx.Estimate) error {
	a := ests[0]
	for i, b := range ests[1:] {
		same := math.Float64bits(a.MeanAccesses) == math.Float64bits(b.MeanAccesses) &&
			math.Float64bits(a.PredictionIOSeconds) == math.Float64bits(b.PredictionIOSeconds) &&
			len(a.Phases) == len(b.Phases)
		for j := 0; same && j < len(a.Phases); j++ {
			pa, pb := a.Phases[j], b.Phases[j]
			same = pa.Name == pb.Name && pa.Seeks == pb.Seeks && pa.Transfers == pb.Transfers
		}
		if !same {
			return fmt.Errorf("gate: estimate %d predicts %v accesses at %v s of I/O, estimate 0 predicted %v at %v s",
				i+1, b.MeanAccesses, b.PredictionIOSeconds, a.MeanAccesses, a.PredictionIOSeconds)
		}
	}
	return nil
}
