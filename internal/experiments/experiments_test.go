package experiments

import (
	"math"
	"strings"
	"testing"

	"hdidx/internal/disk"
)

// Small, fast options for unit tests. Benchmarks at the repository
// root run the same drivers at larger scales.
func tinyOpt() Options {
	// M is chosen so that sigma_lower reaches 1 at the automatic
	// h_upper on the scaled-down TEXTURE60 topology.
	return Options{Scale: 0.02, Queries: 40, K: 21, Seed: 1, M: 600}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Queries != 500 || o.K != 21 || o.Seed != 0 {
		t.Errorf("defaults = %+v", o)
	}
	if o.M != 10000 {
		t.Errorf("M = %d, want 10000 at scale 1", o.M)
	}
	small := Options{Scale: 0.001}.withDefaults()
	if small.M != 200 {
		t.Errorf("M floor = %d, want 200", small.M)
	}
}

// Seed 0 is a seed like any other: it must not run seed 1's workload.
func TestSeedZeroIsItsOwnSeed(t *testing.T) {
	tables := make([]string, 2)
	for seed := range tables {
		res, err := Fig2(Options{Scale: 0.02, Queries: 30, K: 21, Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		tables[seed] = res.String()
	}
	if tables[0] == tables[1] {
		t.Errorf("seeds 0 and 1 print the same table:\n%s", tables[0])
	}
}

func TestFig2ShapeCompensationWins(t *testing.T) {
	res, err := Fig2(Options{Scale: 0.03, Queries: 40, K: 21, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("only %d rows", len(res.Rows))
	}
	// At the full sample both errors vanish.
	last := res.Rows[len(res.Rows)-1]
	if last.SampleFraction != 1 || last.ErrCompensated != 0 || last.ErrUncompensated != 0 {
		t.Errorf("full-sample row = %+v, want zero error", last)
	}
	// Uncompensated predictions underestimate (shrunken pages), and
	// compensation reduces the error at every sampled fraction below 1.
	better := 0
	for _, row := range res.Rows[:len(res.Rows)-1] {
		if row.ErrUncompensated > 0.02 {
			t.Errorf("zeta=%.2f: uncompensated error %+.3f should be an underestimate",
				row.SampleFraction, row.ErrUncompensated)
		}
		if math.Abs(row.ErrCompensated) <= math.Abs(row.ErrUncompensated) {
			better++
		}
	}
	if better < (len(res.Rows)-1)/2 {
		t.Errorf("compensation helped on only %d of %d fractions", better, len(res.Rows)-1)
	}
	if !strings.Contains(res.String(), "Figure 2") {
		t.Error("String() missing title")
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := Table3(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no prediction rows")
	}
	onDiskCost := res.OnDiskBuild.Add(res.OnDiskQueries).CostSeconds(disk.DefaultParams())
	var bestResampled Table3Row
	for _, row := range res.Rows {
		if row.IOSeconds <= 0 {
			t.Errorf("%s h=%d: non-positive I/O cost", row.Method, row.HUpper)
		}
		// Headline claim: every prediction is far cheaper than
		// building and probing the on-disk index.
		if row.IOSeconds*5 > onDiskCost {
			t.Errorf("%s h=%d: prediction cost %.2fs not well below on-disk %.2fs",
				row.Method, row.HUpper, row.IOSeconds, onDiskCost)
		}
		if row.Method == "resampled" && row.SigmaLower == 1 {
			bestResampled = row
		}
	}
	if bestResampled.Method == "" {
		t.Fatal("no resampled row reached sigma_lower = 1")
	}
	if math.Abs(bestResampled.RelErr) > 0.30 {
		t.Errorf("best resampled error %+.2f%% too large", bestResampled.RelErr*100)
	}
	// The resampled predictions must correlate with the measurements
	// (Figure 11's message).
	if bestResampled.Pearson < 0.5 {
		t.Errorf("best resampled Pearson r = %.2f, want > 0.5", bestResampled.Pearson)
	}
	if !strings.Contains(res.String(), "On-disk") {
		t.Error("String() missing on-disk row")
	}
}

func TestCorrelationBeatsSmallMemory(t *testing.T) {
	// Figures 11 vs 12: correlation decreases when memory shrinks.
	big, err := Correlation(Options{Scale: 0.02, Queries: 60, K: 21, Seed: 3, M: 800}, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Correlation(Options{Scale: 0.02, Queries: 60, K: 21, Seed: 3, M: 220}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Both configurations must correlate clearly (the paper's Figure
	// 11/12 message: the resampled predictor tracks per-query
	// behavior, with some degradation at small memory that is noisy at
	// this reduced scale).
	if big.Pearson < 0.5 {
		t.Errorf("large-memory Pearson = %.2f, want > 0.5", big.Pearson)
	}
	if small.Pearson < 0.3 {
		t.Errorf("small-memory Pearson = %.2f, want > 0.3", small.Pearson)
	}
	if len(big.Measured) != 60 || len(big.Predicted) != 60 {
		t.Error("per-query series missing")
	}
	if !strings.Contains(big.String(), "Pearson") {
		t.Error("String() missing Pearson")
	}
}

func TestUniform8DAccuracy(t *testing.T) {
	// Section 5.2 reports -0.5%..-3% at full scale; at reduced scale
	// we accept a looser but still tight band.
	// The uniform experiment runs at the paper's full scale (100,000
	// 8-d points, M = 10,000) — it is cheap, and scaled-down variants
	// distort the memory-to-subtree ratio that Section 4.5 reasons
	// about.
	res, err := Uniform8D(Options{Scale: 1, Queries: 50, K: 21, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ResampledErr) > 0.12 {
		t.Errorf("resampled uniform error %+.1f%%, want within 12%%", res.ResampledErr*100)
	}
	if math.Abs(res.CutoffErr) > 0.25 {
		t.Errorf("cutoff uniform error %+.1f%%, want within 25%%", res.CutoffErr*100)
	}
	if !strings.Contains(res.String(), "uniform") {
		t.Error("String() missing label")
	}
}

func TestTable4Ordering(t *testing.T) {
	res, err := Table4(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string]Table4Row{}
	for _, row := range res.Rows {
		byMethod[row.Method] = row
	}
	uni, fr, rs := byMethod["Uniform"], byMethod["Fractal"], byMethod["Resampled"]
	hist := byMethod["Histogram"]
	// The paper's findings: the uniform model predicts (nearly) all
	// pages; the fractal dimensionality of KLT-like high-dimensional
	// data degenerates toward zero, making the fractal model
	// unreliable; only resampled lands near the measurement.
	if uni.Accesses < float64(res.Pages)*0.99 {
		t.Errorf("uniform predicts %.0f of %d pages, want ~all", uni.Accesses, res.Pages)
	}
	if fr.Accesses > uni.Accesses+0.5 {
		t.Errorf("fractal %.0f above uniform %.0f", fr.Accesses, uni.Accesses)
	}
	if res.FractalDims.D0 > 5 {
		t.Errorf("D0 = %.3f, expected the paper's near-zero degeneracy on KLT-like data", res.FractalDims.D0)
	}
	if math.Abs(rs.RelErr) > 0.30 {
		t.Errorf("resampled error %+.0f%%, want small", rs.RelErr*100)
	}
	if math.Abs(rs.RelErr) >= math.Abs(uni.RelErr) {
		t.Error("resampled must beat the uniform baseline")
	}
	// The Section 2 taxonomy gradient: each category models more
	// distributions than the previous, and sampling wins.
	if hist.Accesses <= 0 || hist.Accesses > uni.Accesses {
		t.Errorf("histogram %.0f outside (0, uniform %.0f]", hist.Accesses, uni.Accesses)
	}
	if math.Abs(rs.RelErr) >= math.Abs(hist.RelErr) {
		t.Error("resampled must beat the histogram baseline")
	}
	if !strings.Contains(res.String(), "Uniform") {
		t.Error("String() missing rows")
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !(row.Cutoff < row.Resampled && row.Resampled < row.OnDisk) {
			t.Errorf("M=%d: ordering violated (%.1f / %.1f / %.1f)",
				row.X, row.Cutoff, row.Resampled, row.OnDisk)
		}
		if row.OnDisk < 5*row.Resampled {
			t.Errorf("M=%d: on-disk/resampled ratio %.1f below ~an order of magnitude",
				row.X, row.OnDisk/row.Resampled)
		}
		if row.OnDisk < 50*row.Cutoff {
			t.Errorf("M=%d: on-disk/cutoff ratio %.0f below two orders", row.X, row.OnDisk/row.Cutoff)
		}
	}
	// On-disk cost decreases monotonically with memory.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].OnDisk > res.Rows[i-1].OnDisk {
			t.Errorf("on-disk cost rose from M=%d to M=%d", res.Rows[i-1].X, res.Rows[i].X)
		}
	}
	if !strings.Contains(res.String(), "Figure 9") {
		t.Error("String() missing title")
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// Linear-ish growth with dimensionality for the scan-dominated
	// approaches; ordering preserved everywhere.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.Cutoff <= first.Cutoff || last.OnDisk <= first.OnDisk {
		t.Error("costs did not grow with dimensionality")
	}
	for _, row := range res.Rows {
		if !(row.Cutoff < row.Resampled && row.Resampled < row.OnDisk) {
			t.Errorf("dim=%d: ordering violated", row.X)
		}
	}
}

func TestSweepDatasetSize(t *testing.T) {
	res, err := SweepDatasetSize()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].OnDisk <= res.Rows[i-1].OnDisk {
			t.Error("on-disk cost must grow with N")
		}
	}
}

func TestFig13TracksMeasurement(t *testing.T) {
	res, err := Fig13(Options{Scale: 0.02, Queries: 40, K: 21, Seed: 5}, []int{8, 32, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MeasuredAccesses <= 0 || row.PredictedAccesses <= 0 {
			t.Errorf("page %dKB: non-positive accesses", row.PageKB)
		}
		re := (row.PredictedAccesses - row.MeasuredAccesses) / row.MeasuredAccesses
		if math.Abs(re) > 0.5 {
			t.Errorf("page %dKB: prediction off by %+.0f%%", row.PageKB, re*100)
		}
	}
	// Larger pages -> fewer accesses (monotone page count).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].MeasuredAccesses >= res.Rows[i-1].MeasuredAccesses {
			t.Error("accesses did not fall with page size")
		}
	}
	if res.BestMeasuredKB == 0 || res.BestPredictedKB == 0 {
		t.Error("optimal page size not determined")
	}
}

func TestFig14TrendAndAccuracy(t *testing.T) {
	res, err := Fig14(Options{Scale: 0.02, Queries: 40, K: 21, Seed: 6}, []int{10, 30, 60})
	if err != nil {
		t.Fatal(err)
	}
	// More indexed dimensions -> smaller page capacity -> more page
	// accesses (the paper's Figure 14 trend).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Measured <= res.Rows[i-1].Measured {
			t.Errorf("measured accesses did not grow: %d dims %.1f -> %d dims %.1f",
				res.Rows[i-1].IndexDims, res.Rows[i-1].Measured,
				res.Rows[i].IndexDims, res.Rows[i].Measured)
		}
	}
	for _, row := range res.Rows {
		re := (row.Predicted - row.Measured) / row.Measured
		if math.Abs(re) > 0.4 {
			t.Errorf("%d dims: prediction off by %+.0f%%", row.IndexDims, re*100)
		}
		// Object-server fetches: at least k, and predicted within a
		// factor of the measurement.
		if row.MeasuredObjects < 21 {
			t.Errorf("%d dims: measured objects %.1f below k", row.IndexDims, row.MeasuredObjects)
		}
		objErr := (row.PredictedObjects - row.MeasuredObjects) / row.MeasuredObjects
		if math.Abs(objErr) > 0.5 {
			t.Errorf("%d dims: object prediction off by %+.0f%%", row.IndexDims, objErr*100)
		}
	}
	// Fewer indexed dimensions -> weaker pruning -> more object fetches.
	if res.Rows[0].MeasuredObjects <= res.Rows[len(res.Rows)-1].MeasuredObjects {
		t.Error("object fetches did not fall with more indexed dimensions")
	}
}

func TestRangeQueriesPredictionTracks(t *testing.T) {
	res, err := RangeQueries(tinyOpt(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Accesses grow with radius, and predictions stay within a
	// moderate band at every selectivity.
	for i, row := range res.Rows {
		if i > 0 && row.Measured <= res.Rows[i-1].Measured {
			t.Errorf("measured accesses did not grow with radius at %g", row.Radius)
		}
		if math.Abs(row.RelErr) > 0.4 {
			t.Errorf("radius %g: relative error %+.0f%%", row.Radius, row.RelErr*100)
		}
	}
	if !strings.Contains(res.String(), "Range queries") {
		t.Error("String() missing title")
	}
}

func TestOtherStructuresBothAccurate(t *testing.T) {
	res, err := OtherStructures(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Measured <= 0 {
			t.Errorf("%s: zero measurement", row.Structure)
		}
		// Spheres compensate less tightly than rectangles (see the
		// driver's comment), so their band is wider at this tiny test
		// scale; the scale-0.25 benchmark reports the real bands.
		limit := 0.30
		switch row.Structure {
		case "SS-tree", "M-tree", "SR-tree":
			limit = 0.40
		}
		if math.Abs(row.RelErr) > limit {
			t.Errorf("%s: relative error %+.0f%%", row.Structure, row.RelErr*100)
		}
	}
	if !strings.Contains(res.String(), "SS-tree") || !strings.Contains(res.String(), "Grid file") {
		t.Error("String() missing structure rows")
	}
}

func TestAllDatasetsWithinBand(t *testing.T) {
	// The paper reports reasonable predictions on every Table 1
	// dataset, including -8%..+0.7% on the 360- and 617-dimensional
	// ones. At this reduced scale (full cardinality for the two small
	// high-dimensional sets) a +-20% band is asserted.
	if testing.Short() {
		t.Skip("multi-dataset sweep")
	}
	res, err := AllDatasets(Options{Scale: 0.05, Queries: 30, K: 21, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if math.Abs(row.RelErr) > 0.20 {
			t.Errorf("%s: relative error %+.1f%%", row.Name, row.RelErr*100)
		}
	}
	if !strings.Contains(res.String(), "ISOLET617") {
		t.Error("String() missing dataset rows")
	}
}

func TestDynamicIndexPrediction(t *testing.T) {
	// Scale 0.1 (12,000 inserts): below that, dynamic mini-trees are
	// too small for their overlap statistics to stabilize.
	res, err := DynamicIndex(Options{Scale: 0.1, Queries: 30, K: 21, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Classic dynamic R*-tree utilization band.
	if res.Utilization < 0.5 || res.Utilization > 0.95 {
		t.Errorf("utilization = %.2f", res.Utilization)
	}
	// The modeled topology (at measured utilization) must land near
	// the real leaf count, and the prediction near the measurement.
	ratio := float64(res.LeavesModel) / float64(res.LeavesReal)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("modeled leaves %d vs real %d", res.LeavesModel, res.LeavesReal)
	}
	if math.Abs(res.RelErr) > 0.30 {
		t.Errorf("relative error %+.0f%%", res.RelErr*100)
	}
	if !strings.Contains(res.String(), "utilization") {
		t.Error("String() missing utilization")
	}
}

func TestRangeQueriesRejectsBadRadius(t *testing.T) {
	if _, err := RangeQueries(tinyOpt(), []float64{-1}); err == nil {
		t.Error("expected error for negative radius")
	}
}

func TestFig14RejectsBadDims(t *testing.T) {
	if _, err := Fig14(Options{Scale: 0.01, Queries: 5, K: 3, Seed: 7}, []int{0}); err == nil {
		t.Error("expected error for dim 0")
	}
}
