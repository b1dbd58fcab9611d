package hdidx

import (
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentEstimatesIndependent is the race check for the
// prediction pipeline: two estimates with identical options run
// concurrently on the same predictor and must produce identical,
// uncorrupted results. Each call stages its own simulated disk and
// derives its own RNGs from the seed, so nothing is shared but the
// immutable dataset. Run with -race (CI does) to make the check real.
func TestConcurrentEstimatesIndependent(t *testing.T) {
	prev := SetWorkers(4)
	t.Cleanup(func() { SetWorkers(prev) })

	pts := clusteredPoints(t, 0.03, 21)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := EstimateOptions{K: 21, Queries: 25, Memory: 1500, Seed: 22}

	const calls = 4
	ests := make([]Estimate, calls)
	errs := make([]error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Alternate methods so two resampled and two cutoff
			// predictions overlap in time.
			m := MethodResampled
			if i%2 == 1 {
				m = MethodCutoff
			}
			ests[i], errs[i] = p.EstimateKNN(m, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// Same method + same options => bit-identical estimates, including
	// the per-query vectors and the I/O accounting, because every call
	// owns its disk and its RNG state.
	for _, pair := range [][2]int{{0, 2}, {1, 3}} {
		a, b := ests[pair[0]], ests[pair[1]]
		// Wall-clock phase timings differ run to run; compare
		// everything else.
		a.Phases, b.Phases = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("concurrent calls %d and %d disagree:\n%+v\n%+v", pair[0], pair[1], a, b)
		}
	}
	// No estimate writes a width: the process-wide one is as set.
	if w := Workers(); w != 4 {
		t.Fatalf("Workers() = %d after the estimates, want 4", w)
	}
}

// TestEstimatesWidthInvariant checks that the process-wide width is a
// wall-clock-only setting at the facade: every estimate and
// measurement returns the same values at one worker and at four. The
// four-worker run forks the bulk loads (the dataset is above the
// loader's fork threshold) and splits every scan, classification and
// leaf count across goroutines.
func TestEstimatesWidthInvariant(t *testing.T) {
	prev := SetWorkers(1)
	t.Cleanup(func() { SetWorkers(prev) })

	pts := clusteredPoints(t, 0.03, 21)
	p, err := NewPredictor(pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := EstimateOptions{K: 21, Queries: 25, Memory: 1500, Seed: 22}
	const radius = 0.3
	run := func() []interface{} {
		var out []interface{}
		for _, m := range []Method{MethodBasic, MethodCutoff, MethodResampled} {
			knn, err := p.EstimateKNN(m, opts)
			if err != nil {
				t.Fatalf("EstimateKNN(%s): %v", m, err)
			}
			rangeEst, err := p.EstimateRange(m, radius, opts)
			if err != nil {
				t.Fatalf("EstimateRange(%s): %v", m, err)
			}
			// Wall-clock phase timings differ run to run; compare
			// everything else.
			knn.Phases, rangeEst.Phases = nil, nil
			out = append(out, knn, rangeEst)
		}
		knn, err := p.MeasureKNNAccesses(opts)
		if err != nil {
			t.Fatal(err)
		}
		rangeMeas, err := p.MeasureRangeAccesses(radius, opts)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, knn, rangeMeas)
	}
	one := run()
	SetWorkers(4)
	four := run()
	for i := range one {
		if !reflect.DeepEqual(one[i], four[i]) {
			t.Fatalf("result %d differs between 1 and 4 workers:\n%+v\n%+v", i, one[i], four[i])
		}
	}
}
