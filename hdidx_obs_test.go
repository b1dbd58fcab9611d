package hdidx

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hdidx/internal/obs"
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
// exact bits of the prediction and of its priced I/O, for a basic, a
// resampled and a cutoff estimate of a k-NN workload (radius 0) and of
// a range workload, on a fixed TEXTURE60 sample tall enough for an
// upper/lower split. No other test pins these counts, so a change to
// how pages are charged, or to the order in which an estimate draws
// its queries and sample, fails here.
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
		radius     float64
		mean, io   uint64
		wantHUpper int
		phases     []phase
	}{
		{MethodBasic, 0, 0x4033947ae147ae14, 0, 0, []phase{
			{"workload.spheres", 0, 0},
			{"sample.draw", 0, 0},
			{"mini.build", 0, 0},
			{"intersect.count", 0, 0},
		}},
		{MethodBasic, 0.3, 0x40380a3d70a3d70a, 0, 0, []phase{
			{"sample.draw", 0, 0},
			{"mini.build", 0, 0},
			{"intersect.count", 0, 0},
		}},
		{MethodResampled, 0.3, 0x403b70a3d70a3d71, 0x3ffb5dcc63f14121, 2, []phase{
			{"queries.read", 49, 50},
			{"sample.scan", 1, 168},
			{"upper.build", 0, 0},
			{"resample.scan", 6, 168},
			{"area.write", 72, 223},
			{"lower.build", 12, 167},
			{"intersect.count", 0, 0},
		}},
		{MethodCutoff, 0.3, 0x4043051eb851eb85, 0x3fe2ca57a786c226, 2, []phase{
			{"queries.read", 49, 50},
			{"sample.scan", 1, 168},
			{"upper.build", 0, 0},
			{"lower.derive", 0, 0},
			{"intersect.count", 0, 0},
		}},
		{MethodResampled, 0, 0x4035b33333333333, 0x3ffb5dcc63f14121, 2, []phase{
			{"queries.read", 49, 50},
			{"sample.scan", 1, 168},
			{"upper.build", 0, 0},
			{"resample.scan", 6, 168},
			{"area.write", 72, 223},
			{"lower.build", 12, 167},
			{"intersect.count", 0, 0},
		}},
		{MethodCutoff, 0, 0x40379eb851eb851f, 0x3fe2ca57a786c226, 2, []phase{
			{"queries.read", 49, 50},
			{"sample.scan", 1, 168},
			{"upper.build", 0, 0},
			{"lower.derive", 0, 0},
			{"intersect.count", 0, 0},
		}},
	} {
		opts := EstimateOptions{K: 21, Queries: 50, Memory: 1000, Seed: 5}
		var est Estimate
		if tc.radius == 0 {
			est, err = p.EstimateKNN(tc.method, opts)
		} else {
			est, err = p.EstimateRange(tc.method, tc.radius, opts)
		}
		name := fmt.Sprintf("%s radius %v", tc.method, tc.radius)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := math.Float64bits(est.MeanAccesses); got != tc.mean {
			t.Errorf("%s: MeanAccesses = %v (bits %#x), want bits %#x",
				name, est.MeanAccesses, got, tc.mean)
		}
		if got := math.Float64bits(est.PredictionIOSeconds); got != tc.io {
			t.Errorf("%s: PredictionIOSeconds = %v (bits %#x), want bits %#x",
				name, est.PredictionIOSeconds, got, tc.io)
		}
		if est.HUpper != tc.wantHUpper {
			t.Errorf("%s: h_upper = %d, want %d", name, est.HUpper, tc.wantHUpper)
		}
		got := make([]phase, len(est.Phases))
		for i, ph := range est.Phases {
			got[i] = phase{ph.Name, ph.Seeks, ph.Transfers}
		}
		if !reflect.DeepEqual(got, tc.phases) {
			t.Errorf("%s: phases = %+v, want %+v", name, got, tc.phases)
		}
	}
}

// TestEstimateUnknownMethodLeavesNoTrace checks that an unknown method
// is rejected before anything is staged or traced: with collection on
// (the CLIs' -trace), no trace named after the bad method may be left
// in the registry.
func TestEstimateUnknownMethodLeavesNoTrace(t *testing.T) {
	p, err := NewPredictor(clusteredPoints(t, 0.02, 12))
	if err != nil {
		t.Fatal(err)
	}
	obs.Default.SetEnabled(true)
	defer func() {
		obs.Default.SetEnabled(false)
		obs.Default.Reset()
	}()
	before := len(obs.Default.Traces())
	opts := EstimateOptions{Queries: 10, Memory: 1000, Seed: 1}
	if _, err := p.EstimateKNN(Method("bogus"), opts); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("EstimateKNN: err = %v, want unknown method", err)
	}
	if _, err := p.EstimateRange(Method("bogus"), 0.3, opts); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("EstimateRange: err = %v, want unknown method", err)
	}
	if got := len(obs.Default.Traces()); got != before {
		t.Errorf("an unknown method left %d traces in the registry", got-before)
	}
}

// TestMeasureTraces checks that the two measurements, which share one
// body, each register their own trace with collection on: the k-NN one
// times the spheres, and both time the bulk load and the leaf count.
func TestMeasureTraces(t *testing.T) {
	p, err := NewPredictor(clusteredPoints(t, 0.02, 12))
	if err != nil {
		t.Fatal(err)
	}
	obs.Default.SetEnabled(true)
	defer func() {
		obs.Default.SetEnabled(false)
		obs.Default.Reset()
	}()
	before := len(obs.Default.Traces())
	opts := EstimateOptions{Queries: 10, Seed: 1}
	if _, err := p.MeasureKNNAccesses(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MeasureRangeAccesses(0.3, opts); err != nil {
		t.Fatal(err)
	}
	traces := obs.Default.Traces()[before:]
	want := []struct{ name, phases string }{
		{"hdidx.measure.knn", "workload.spheres rtree.build measure.leaves"},
		{"hdidx.measure.range", "rtree.build measure.leaves"},
	}
	if len(traces) != len(want) {
		t.Fatalf("the measurements registered %d traces, want %d", len(traces), len(want))
	}
	for i, w := range want {
		var report strings.Builder
		traces[i].WriteText(&report)
		if first, _, _ := strings.Cut(report.String(), "\n"); first != "trace "+w.name {
			t.Errorf("trace %d is %q, want %q", i, first, "trace "+w.name)
		}
		var phases []string
		for _, ph := range traces[i].Phases() {
			phases = append(phases, ph.Name)
		}
		if got := strings.Join(phases, " "); got != w.phases {
			t.Errorf("%s phases %q, want %q", w.name, got, w.phases)
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
