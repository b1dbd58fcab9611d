package hdidx

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestEstimatePhasesSumToPredictionIO is the acceptance regression for
// the observability layer: the resampled predictor must report a named
// per-phase breakdown whose I/O costs sum to PredictionIOSeconds.
func TestEstimatePhasesSumToPredictionIO(t *testing.T) {
	pts := clusteredPoints(t, 0.05, 20)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := EstimateOptions{K: 21, Queries: 30, Memory: 2000, Seed: 21}
	est, err := p.EstimateKNN(MethodResampled, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Phases) < 4 {
		t.Fatalf("resampled estimate reported %d phases, want >= 4: %+v", len(est.Phases), est.Phases)
	}
	var sum float64
	for _, ph := range est.Phases {
		if ph.Name == "" {
			t.Error("unnamed phase")
		}
		if ph.Count < 1 {
			t.Errorf("phase %q has Count %d", ph.Name, ph.Count)
		}
		sum += ph.IOSeconds
	}
	if est.PredictionIOSeconds <= 0 {
		t.Fatalf("PredictionIOSeconds = %g", est.PredictionIOSeconds)
	}
	if rel := math.Abs(sum-est.PredictionIOSeconds) / est.PredictionIOSeconds; rel > 1e-9 {
		t.Errorf("phase I/O sums to %g, PredictionIOSeconds = %g (rel %g)",
			sum, est.PredictionIOSeconds, rel)
	}
	report := est.PhaseReport()
	for _, want := range []string{"phase", "io(s)", "total"} {
		if !strings.Contains(report, want) {
			t.Errorf("PhaseReport missing %q:\n%s", want, report)
		}
	}
}

// TestEstimateAccountingGolden pins the simulated disk's cost
// accounting end to end: every phase's seeks and transfers, and the
// exact bits of the prediction and of its priced I/O, for one
// resampled and one cutoff estimate on a fixed TEXTURE60 sample tall
// enough for an upper/lower split. No other test pins these counts, so
// a change to how pages are charged fails here.
func TestEstimateAccountingGolden(t *testing.T) {
	pts := clusteredPoints(t, 0.02, 11)
	if len(pts) != 5509 {
		t.Fatalf("sample has %d points, want 5509", len(pts))
	}
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	type phase struct {
		name             string
		seeks, transfers int64
	}
	for _, tc := range []struct {
		method     Method
		mean, io   uint64
		wantHUpper int
		phases     []phase
	}{
		{MethodResampled, 0x4035b33333333333, 0x3ffb5dcc63f14121, 2, []phase{
			{"queries.read", 49, 50},
			{"sample.scan", 1, 168},
			{"upper.build", 0, 0},
			{"resample.scan", 6, 168},
			{"area.write", 72, 223},
			{"lower.build", 12, 167},
			{"intersect.count", 0, 0},
		}},
		{MethodCutoff, 0x40379eb851eb851f, 0x3fe2ca57a786c226, 2, []phase{
			{"queries.read", 49, 50},
			{"sample.scan", 1, 168},
			{"upper.build", 0, 0},
			{"lower.derive", 0, 0},
			{"intersect.count", 0, 0},
		}},
	} {
		est, err := p.EstimateKNN(tc.method, EstimateOptions{K: 21, Queries: 50, Memory: 1000, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", tc.method, err)
		}
		if got := math.Float64bits(est.MeanAccesses); got != tc.mean {
			t.Errorf("%s: MeanAccesses = %v (bits %#x), want bits %#x",
				tc.method, est.MeanAccesses, got, tc.mean)
		}
		if got := math.Float64bits(est.PredictionIOSeconds); got != tc.io {
			t.Errorf("%s: PredictionIOSeconds = %v (bits %#x), want bits %#x",
				tc.method, est.PredictionIOSeconds, got, tc.io)
		}
		if est.HUpper != tc.wantHUpper {
			t.Errorf("%s: h_upper = %d, want %d", tc.method, est.HUpper, tc.wantHUpper)
		}
		got := make([]phase, len(est.Phases))
		for i, ph := range est.Phases {
			got[i] = phase{ph.Name, ph.Seeks, ph.Transfers}
		}
		if !reflect.DeepEqual(got, tc.phases) {
			t.Errorf("%s: phases = %+v, want %+v", tc.method, got, tc.phases)
		}
	}
}

func TestEstimatePhasesOtherMethods(t *testing.T) {
	pts := clusteredPoints(t, 0.04, 22)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := EstimateOptions{K: 21, Queries: 20, Memory: 1500, Seed: 23}

	est, err := p.EstimateKNN(MethodCutoff, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Phases) == 0 {
		t.Error("cutoff estimate has no phases")
	}
	var sum float64
	for _, ph := range est.Phases {
		sum += ph.IOSeconds
	}
	if math.Abs(sum-est.PredictionIOSeconds) > 1e-9*math.Max(1, est.PredictionIOSeconds) {
		t.Errorf("cutoff phases sum to %g, PredictionIOSeconds = %g", sum, est.PredictionIOSeconds)
	}

	est, err = p.EstimateKNN(MethodBasic, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Phases) == 0 {
		t.Error("basic estimate has no phases")
	}
	if est.PredictionIOSeconds != 0 {
		t.Errorf("basic PredictionIOSeconds = %g, want 0 (in-memory)", est.PredictionIOSeconds)
	}
	for _, ph := range est.Phases {
		if ph.IOSeconds != 0 || ph.Seeks != 0 || ph.Transfers != 0 {
			t.Errorf("basic phase %q charged I/O: %+v", ph.Name, ph)
		}
	}
}

// TestSeedSemantics pins the fixed seed contract: every seed >= 0 runs
// verbatim (seed 0 included), negative selects DefaultSeed.
func TestSeedSemantics(t *testing.T) {
	pts := clusteredPoints(t, 0.03, 24)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	base := EstimateOptions{K: 21, Queries: 30, Memory: 1500}

	seed0 := base
	seed0.Seed = 0
	est0, err := p.EstimateKNN(MethodResampled, seed0)
	if err != nil {
		t.Fatal(err)
	}
	seed1 := base
	seed1.Seed = 1
	est1, err := p.EstimateKNN(MethodResampled, seed1)
	if err != nil {
		t.Fatal(err)
	}
	if equalSlices(est0.PerQuery, est1.PerQuery) {
		t.Error("seed 0 produced the same workload as seed 1: the zero seed is being remapped")
	}

	neg := base
	neg.Seed = -7
	estNeg, err := p.EstimateKNN(MethodResampled, neg)
	if err != nil {
		t.Fatal(err)
	}
	def := base
	def.Seed = DefaultSeed
	estDef, err := p.EstimateKNN(MethodResampled, def)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSlices(estNeg.PerQuery, estDef.PerQuery) {
		t.Error("negative seed did not select DefaultSeed")
	}
}

func TestEstimateDeterminism(t *testing.T) {
	pts := clusteredPoints(t, 0.03, 25)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := EstimateOptions{K: 21, Queries: 25, Memory: 1500, Seed: 0}
	a, err := p.EstimateKNN(MethodResampled, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.EstimateKNN(MethodResampled, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSlices(a.PerQuery, b.PerQuery) || a.PredictionIOSeconds != b.PredictionIOSeconds {
		t.Error("same options produced different estimates")
	}
}

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOptionValidation(t *testing.T) {
	pts := clusteredPoints(t, 0.005, 26)
	cases := []struct {
		name string
		opt  Option
	}{
		{"zero page", WithPageBytes(0)},
		{"negative page", WithPageBytes(-4096)},
		{"zero utilization", WithUtilization(0)},
		{"utilization above one", WithUtilization(1.5)},
		{"negative utilization", WithUtilization(-0.5)},
	}
	for _, c := range cases {
		if _, err := Build(pts, c.opt); err == nil {
			t.Errorf("Build accepted %s", c.name)
		}
		if _, err := NewPredictor(pts, c.opt); err == nil {
			t.Errorf("NewPredictor accepted %s", c.name)
		}
	}
}

func TestRaggedInputValidation(t *testing.T) {
	ragged := [][]float64{{1, 2, 3}, {4, 5}, {6, 7, 8}}
	if _, err := Build(ragged); err == nil || !strings.Contains(err.Error(), "ragged") {
		t.Errorf("Build on ragged input: %v", err)
	}
	if _, err := NewPredictor(ragged); err == nil || !strings.Contains(err.Error(), "ragged") {
		t.Errorf("NewPredictor on ragged input: %v", err)
	}
	if _, err := Build([][]float64{{}, {}}); err == nil {
		t.Error("Build accepted zero-dimensional points")
	}
}

func TestEstimateOptionsValidation(t *testing.T) {
	pts := clusteredPoints(t, 0.01, 27)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	bad := []EstimateOptions{
		{K: -1},
		{Queries: -5},
		{Memory: -100},
		{SampleFraction: 1.5},
		{SampleFraction: -0.1},
	}
	for _, opts := range bad {
		if _, err := p.EstimateKNN(MethodResampled, opts); err == nil {
			t.Errorf("EstimateKNN accepted %+v", opts)
		}
		if _, err := p.MeasureKNNAccesses(opts); err == nil {
			t.Errorf("MeasureKNNAccesses accepted %+v", opts)
		}
	}
}

// TestFlatTreeSentinel pins the ErrFlatTree contract: a page size that
// flattens the modeled tree below the upper/lower split fails with the
// sentinel, detectable via errors.Is.
func TestFlatTreeSentinel(t *testing.T) {
	pts := clusteredPoints(t, 0.03, 28)
	p, err := NewPredictor(pts, WithPageBytes(256<<10))
	if err != nil {
		t.Fatal(err)
	}
	opts := EstimateOptions{K: 21, Queries: 10, Memory: 1000, Seed: 29}
	_, err = p.EstimateKNN(MethodResampled, opts)
	if err == nil {
		t.Skip("256K pages did not flatten this tree; nothing to assert")
	}
	if !errors.Is(err, ErrFlatTree) {
		t.Errorf("flat-tree failure is not ErrFlatTree: %v", err)
	}
}

// TestTunePageSizePropagatesErrors verifies the sweep no longer
// swallows non-flat-tree failures under a silent basic fallback.
func TestTunePageSizePropagatesErrors(t *testing.T) {
	pts := clusteredPoints(t, 0.02, 30)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = p.TunePageSize([]int{8192}, EstimateOptions{Queries: -1})
	if err == nil {
		t.Fatal("TunePageSize swallowed an invalid-options error")
	}
	if errors.Is(err, ErrFlatTree) {
		t.Errorf("invalid options misreported as flat tree: %v", err)
	}
}
