package hdidx

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hdidx/internal/dataset"
	"hdidx/internal/disk"
)

func clusteredPoints(tb testing.TB, scale float64, seed int64) [][]float64 {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	return dataset.Texture60.Scaled(scale).Generate(rng).Points
}

func TestBuildAndKNN(t *testing.T) {
	pts := clusteredPoints(t, 0.02, 1)
	ix, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(pts) || ix.Dim() != 60 {
		t.Fatalf("index %dx%d", ix.Len(), ix.Dim())
	}
	if ix.Height() < 2 || ix.NumLeaves() < 2 {
		t.Fatalf("degenerate index: height %d leaves %d", ix.Height(), ix.NumLeaves())
	}
	q := pts[42]
	nbs, st, err := ix.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 5 {
		t.Fatalf("%d neighbors", len(nbs))
	}
	// The query point is in the dataset: nearest neighbor is itself.
	for j := range q {
		if nbs[0][j] != q[j] {
			t.Fatal("first neighbor is not the query point")
		}
	}
	if st.LeafAccesses < 1 || st.Radius <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestKNNValidation(t *testing.T) {
	pts := clusteredPoints(t, 0.005, 2)
	ix, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.KNN(pts[0], 0); err == nil {
		t.Error("expected error for k=0")
	}
	if _, _, err := ix.KNN([]float64{1, 2}, 1); err == nil {
		t.Error("expected error for dimension mismatch")
	}
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("expected error")
	}
}

func TestRangeCount(t *testing.T) {
	pts := clusteredPoints(t, 0.01, 3)
	ix, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ix.KNN(pts[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := ix.RangeCount(pts[0], st.Radius)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Errorf("range at 10-NN radius found %d points, want >= 10", n)
	}
	if _, _, err := ix.RangeCount(pts[0], -1); err == nil {
		t.Error("expected error for negative radius")
	}
}

func TestBuildOptions(t *testing.T) {
	pts := clusteredPoints(t, 0.01, 4)
	small, err := Build(pts, WithPageBytes(8192))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(pts, WithPageBytes(65536))
	if err != nil {
		t.Fatal(err)
	}
	if big.NumLeaves() >= small.NumLeaves() {
		t.Errorf("64K pages produced %d leaves, 8K produced %d", big.NumLeaves(), small.NumLeaves())
	}
}

func TestPredictorResampledMatchesMeasurement(t *testing.T) {
	pts := clusteredPoints(t, 0.05, 5)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := EstimateOptions{K: 21, Queries: 40, Memory: 2000, Seed: 6}
	est, err := p.EstimateKNN(MethodResampled, opts)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := p.MeasureKNNAccesses(opts)
	if err != nil {
		t.Fatal(err)
	}
	re := (est.MeanAccesses - measured) / measured
	if math.Abs(re) > 0.35 {
		t.Errorf("relative error %+.2f (predicted %.1f, measured %.1f)", re, est.MeanAccesses, measured)
	}
	if est.PredictionIOSeconds <= 0 {
		t.Error("no prediction I/O reported")
	}
	if len(est.PerQuery) != 40 {
		t.Errorf("per-query size %d", len(est.PerQuery))
	}
}

// TestMeasureKNNAccessesKeepsCallerOrder is the regression test of the
// predictor's ground truth: measuring bulk-loads an index over the
// predictor's points, and the bulk load reorders its input. Two
// measurements on one predictor must agree, and the caller's slice must
// keep its order.
func TestMeasureKNNAccessesKeepsCallerOrder(t *testing.T) {
	pts := clusteredPoints(t, 0.02, 14)
	before := append([][]float64(nil), pts...)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := EstimateOptions{K: 21, Queries: 30, Seed: 15}
	first, err := p.MeasureKNNAccesses(opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.MeasureKNNAccesses(opts)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("second measurement %v, first %v", second, first)
	}
	for i := range pts {
		if &pts[i][0] != &before[i][0] {
			t.Fatalf("MeasureKNNAccesses reordered the caller's points (index %d moved)", i)
		}
	}
}

func TestPredictorMethods(t *testing.T) {
	pts := clusteredPoints(t, 0.03, 7)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := EstimateOptions{K: 21, Queries: 20, Memory: 1500, Seed: 8}
	for _, m := range []Method{MethodBasic, MethodCutoff, MethodResampled} {
		est, err := p.EstimateKNN(m, opts)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if est.MeanAccesses <= 0 {
			t.Errorf("%s: mean %v", m, est.MeanAccesses)
		}
		if est.Method != m {
			t.Errorf("method = %q", est.Method)
		}
	}
	if _, err := p.EstimateKNN(Method("bogus"), opts); err == nil {
		t.Error("expected error for unknown method")
	}
}

func TestPredictorRangeEstimate(t *testing.T) {
	pts := clusteredPoints(t, 0.05, 8)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Use the mean 21-NN radius as a realistic range radius.
	knnOpts := EstimateOptions{K: 21, Queries: 30, Memory: 2000, Seed: 9}
	measured21, err := p.MeasureKNNAccesses(knnOpts)
	if err != nil {
		t.Fatal(err)
	}
	_ = measured21
	const radius = 0.3
	opts := EstimateOptions{Queries: 30, Memory: 2000, Seed: 9}
	est, err := p.EstimateRange(MethodResampled, radius, opts)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := p.MeasureRangeAccesses(radius, opts)
	if err != nil {
		t.Fatal(err)
	}
	if measured <= 0 {
		t.Skip("radius too small for this dataset")
	}
	re := (est.MeanAccesses - measured) / measured
	if math.Abs(re) > 0.4 {
		t.Errorf("range estimate error %+.2f (pred %.1f, meas %.1f)", re, est.MeanAccesses, measured)
	}
	if _, err := p.EstimateRange(MethodResampled, -1, opts); err == nil {
		t.Error("expected error for negative radius")
	}
	if _, err := p.EstimateRange(Method("nope"), radius, opts); err == nil {
		t.Error("expected error for bad method")
	}
}

func TestPredictorRangeBasic(t *testing.T) {
	pts := clusteredPoints(t, 0.03, 10)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := EstimateOptions{Queries: 20, Memory: 1500, Seed: 11}
	est, err := p.EstimateRange(MethodBasic, 0.3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.MeanAccesses <= 0 {
		t.Errorf("mean = %v", est.MeanAccesses)
	}
}

func TestTunePageSize(t *testing.T) {
	pts := clusteredPoints(t, 0.03, 12)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := EstimateOptions{K: 21, Queries: 30, Memory: 1000, Seed: 13}
	best, all, err := p.TunePageSize(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("candidates = %d", len(all))
	}
	// Accesses fall monotonically with page size; cost must bottom out
	// at the reported best.
	for i := 1; i < len(all); i++ {
		if all[i].MeanAccesses >= all[i-1].MeanAccesses {
			t.Errorf("accesses did not fall from %d to %d bytes",
				all[i-1].PageBytes, all[i].PageBytes)
		}
	}
	for _, c := range all {
		if c.SecondsPerQuery < best.SecondsPerQuery {
			t.Errorf("best %d bytes (%.4f s) beaten by %d bytes (%.4f s)",
				best.PageBytes, best.SecondsPerQuery, c.PageBytes, c.SecondsPerQuery)
		}
	}
	if _, _, err := p.TunePageSize([]int{100}, opts); err == nil {
		t.Error("expected error for sub-1KB page")
	}
}

// TestTunePageSizePricesLikeTheDisk checks that the page-size sweep
// prices an access the way the simulated disk and every prediction's
// I/O cost do: one seek plus the transfer of one page at that size.
func TestTunePageSizePricesLikeTheDisk(t *testing.T) {
	p, err := NewPredictor(clusteredPoints(t, 0.02, 12))
	if err != nil {
		t.Fatal(err)
	}
	_, all, err := p.TunePageSize([]int{8 << 10, 32 << 10, 128 << 10}, EstimateOptions{Queries: 20, Memory: 1000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		price := disk.DefaultParams().WithPageBytes(c.PageBytes)
		if want := c.MeanAccesses * (price.SeekSeconds + price.XferSeconds); c.SecondsPerQuery != want {
			t.Errorf("%d bytes: %v s/query, want %v", c.PageBytes, c.SecondsPerQuery, want)
		}
	}
}

func TestPredictorEmpty(t *testing.T) {
	if _, err := NewPredictor(nil); err == nil {
		t.Error("expected error")
	}
}

// TestBuildRetainsOnlySnapshot checks that an Index keeps no reference
// to its caller's rows: the query snapshot packs its own copy of the
// points, so once the caller drops the input the live heap an Index
// holds is that snapshot — the packed coordinates plus its directory —
// not a second, pointer-tree copy of every row.
func TestBuildRetainsOnlySnapshot(t *testing.T) {
	const n, dim = 20000, 64
	packed := float64(n * dim * 8)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	ix := func() *Index {
		rng := rand.New(rand.NewSource(5))
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, dim)
			for d := range pts[i] {
				pts[i][d] = rng.Float64()
			}
		}
		ix, err := Build(pts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}()
	retained := float64(heap() - before)
	runtime.KeepAlive(ix)
	t.Logf("retained %.1f MB for %.1f MB of packed coordinates (%.2fx)", retained/1e6, packed/1e6, retained/packed)
	if retained > 1.5*packed {
		t.Fatalf("an Index retains %.1f MB, over 1.5x its %.1f MB of packed coordinates", retained/1e6, packed/1e6)
	}
}
