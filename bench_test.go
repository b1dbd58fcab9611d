package hdidx

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index), plus ablation
// benchmarks for the design choices the reproduction calls out.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment driver at a
// reduced scale that preserves the paper's memory-to-data ratio (the
// analytic sweeps of Figures 9 and 10 always run at full paper size)
// and reports the headline quantities via b.ReportMetric:
// relative errors in percent (relerr_*), Pearson correlations (r_*),
// simulated I/O seconds (io_*), and speedups over the on-disk
// baseline (speedup_*). The printed tables themselves come from
// `go run ./cmd/experiments`.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/disk"
	"hdidx/internal/experiments"
	"hdidx/internal/pager"
	"hdidx/internal/par"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
	"hdidx/internal/stats"
)

// benchOpt is the shared workload configuration for the measured
// experiments: a tenth of the paper's cardinalities with the paper's
// M/N ratio, 100 sample queries, 21-NN.
func benchOpt() experiments.Options {
	return experiments.Options{Scale: 0.1, Queries: 100, K: 21, Seed: 1}
}

func absPct(x float64) float64 { return math.Abs(x) * 100 }

// BenchmarkFig2SampleSize regenerates Figure 2: relative error of the
// basic sampling model versus sample size, with and without the
// Theorem 1 compensation, on the COLOR64 stand-in.
func BenchmarkFig2SampleSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			// Error at a 10% sample, the paper's recommended minimum.
			for _, row := range res.Rows {
				if row.SampleFraction == 0.10 {
					b.ReportMetric(absPct(row.ErrCompensated), "relerr_comp_10pct_%")
					b.ReportMetric(absPct(row.ErrUncompensated), "relerr_raw_10pct_%")
				}
			}
		}
	}
}

// BenchmarkFig9IOCostVsMemory regenerates Figure 9 (analytic, paper
// size: one million 60-d points).
func BenchmarkFig9IOCostVsMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			for _, row := range res.Rows {
				if row.X == 10000 {
					b.ReportMetric(row.OnDisk/row.Resampled, "speedup_resampled_x")
					b.ReportMetric(row.OnDisk/row.Cutoff, "speedup_cutoff_x")
				}
			}
		}
	}
}

// BenchmarkFig10IOCostVsDim regenerates Figure 10 (analytic).
func BenchmarkFig10IOCostVsDim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.OnDisk/last.Cutoff, "speedup_cutoff_maxdim_x")
		}
	}
}

// BenchmarkSweepDatasetSize regenerates the Section 4.6 dataset-size
// comparison (analytic).
func BenchmarkSweepDatasetSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SweepDatasetSize()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable3Texture60 regenerates Table 3: relative error and
// measured I/O of the on-disk baseline versus the resampled and cutoff
// predictors across h_upper, on the TEXTURE60 stand-in.
func BenchmarkTable3Texture60(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			onDisk := res.OnDiskBuild.Add(res.OnDiskQueries).CostSeconds(disk.DefaultParams())
			var bestErr, bestIO float64
			found := false
			for _, row := range res.Rows {
				if row.Method == "resampled" && (!found || math.Abs(row.RelErr) < math.Abs(bestErr)) {
					bestErr, bestIO, found = row.RelErr, row.IOSeconds, true
				}
			}
			b.ReportMetric(absPct(bestErr), "relerr_best_resampled_%")
			b.ReportMetric(onDisk/bestIO, "speedup_best_resampled_x")
		}
	}
}

// BenchmarkFig11Correlation regenerates Figure 11: per-query
// correlation of the resampled predictor at the larger memory size.
func BenchmarkFig11Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Correlation(benchOpt(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			b.ReportMetric(res.Pearson, "r_pearson")
		}
	}
}

// BenchmarkFig12CorrelationSmallM regenerates Figure 12: the same
// correlation with a tenth of the memory.
func BenchmarkFig12CorrelationSmallM(b *testing.B) {
	opt := benchOpt()
	opt.M = 250 // a tenth of the scaled default, floored
	for i := 0; i < b.N; i++ {
		res, err := experiments.Correlation(opt, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			b.ReportMetric(res.Pearson, "r_pearson")
		}
	}
}

// BenchmarkUniform8D regenerates the Section 5.2 uniform sanity check
// at the paper's full scale (100,000 8-d points).
func BenchmarkUniform8D(b *testing.B) {
	opt := experiments.Options{Scale: 1, Queries: 100, K: 21, Seed: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Uniform8D(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			b.ReportMetric(res.ResampledErr*100, "relerr_resampled_%")
			b.ReportMetric(res.CutoffErr*100, "relerr_cutoff_%")
		}
	}
}

// BenchmarkTable4ModelComparison regenerates Table 4: uniform versus
// fractal versus resampled prediction accuracy.
func BenchmarkTable4ModelComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			for _, row := range res.Rows {
				switch row.Method {
				case "Uniform":
					b.ReportMetric(row.RelErr*100, "relerr_uniform_%")
				case "Fractal":
					b.ReportMetric(row.RelErr*100, "relerr_fractal_%")
				case "Resampled":
					b.ReportMetric(row.RelErr*100, "relerr_resampled_%")
				}
			}
		}
	}
}

// BenchmarkFig13PageSize regenerates Figure 13: the optimal-page-size
// curve, model versus measurement.
func BenchmarkFig13PageSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(benchOpt(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			b.ReportMetric(float64(res.BestMeasuredKB), "optimal_measured_KB")
			b.ReportMetric(float64(res.BestPredictedKB), "optimal_predicted_KB")
		}
	}
}

// BenchmarkFig14DimReduction regenerates Figure 14: index page
// accesses versus the number of dimensions stored in the index.
func BenchmarkFig14DimReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(benchOpt(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			var worst float64
			for _, row := range res.Rows {
				re := math.Abs((row.Predicted - row.Measured) / row.Measured)
				if re > worst {
					worst = re
				}
			}
			b.ReportMetric(worst*100, "relerr_worst_%")
		}
	}
}

// ablationEnv stages a TEXTURE60 stand-in on a simulated disk for the
// ablation benchmarks.
type ablationEnv struct {
	data     [][]float64
	g        rtree.Geometry
	pf       *disk.PointFile
	indices  []int
	spheres  []query.Sphere
	measured float64
	k        int
}

func newAblationEnv(b *testing.B, seed int64) *ablationEnv {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := dataset.Texture60.Scaled(0.1).Generate(rng).Points
	g := rtree.NewGeometry(len(data[0]))
	d := disk.New(disk.DefaultParams())
	pf := disk.NewPointFile(d, len(data[0]), len(data))
	pf.AppendAll(data)
	d.ResetCounters()
	const q, k = 100, 21
	indices := make([]int, q)
	queryPoints := make([][]float64, q)
	for i := range indices {
		indices[i] = rng.Intn(len(data))
		queryPoints[i] = data[indices[i]]
	}
	spheres := query.ComputeSpheres(data, queryPoints, k)
	cp := make([][]float64, len(data))
	copy(cp, data)
	tree := rtree.Build(cp, rtree.ParamsForGeometry(g))
	measured := stats.Mean(query.MeasureLeafAccesses(tree, spheres))
	return &ablationEnv{data: data, g: g, pf: pf, indices: indices, spheres: spheres, measured: measured, k: k}
}

func (e *ablationEnv) config(seed int64) core.Config {
	return core.Config{
		Geometry:     e.g,
		M:            1000,
		K:            e.k,
		QueryIndices: e.indices,
		Rng:          rand.New(rand.NewSource(seed)),
	}
}

// BenchmarkAblationCompensation quantifies Theorem 1's contribution:
// the basic model with and without leaf-page growth at a 10% sample.
func BenchmarkAblationCompensation(b *testing.B) {
	env := newAblationEnv(b, 31)
	for i := 0; i < b.N; i++ {
		comp, err := core.PredictBasic(env.data, 0.1, true, env.g, env.spheres, rand.New(rand.NewSource(32)), par.Pool{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		raw, err := core.PredictBasic(env.data, 0.1, false, env.g, env.spheres, rand.New(rand.NewSource(32)), par.Pool{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(absPct(stats.RelativeError(comp.Mean, env.measured)), "relerr_compensated_%")
			b.ReportMetric(absPct(stats.RelativeError(raw.Mean, env.measured)), "relerr_uncompensated_%")
		}
	}
}

// BenchmarkAblationSplitStrategy compares the VAMSplit maximum-
// variance split against a longest-side split: the mean leaf accesses
// of full indexes built with each strategy on the same clustered data.
func BenchmarkAblationSplitStrategy(b *testing.B) {
	env := newAblationEnv(b, 33)
	for i := 0; i < b.N; i++ {
		params := rtree.ParamsForGeometry(env.g)
		cp1 := make([][]float64, len(env.data))
		copy(cp1, env.data)
		maxVar := rtree.Build(cp1, params)

		params.Split = rtree.SplitLongestSide
		cp2 := make([][]float64, len(env.data))
		copy(cp2, env.data)
		longest := rtree.Build(cp2, params)

		if i == 0 {
			mv := stats.Mean(query.MeasureLeafAccesses(maxVar, env.spheres))
			ls := stats.Mean(query.MeasureLeafAccesses(longest, env.spheres))
			b.ReportMetric(mv, "accesses_maxvariance")
			b.ReportMetric(ls, "accesses_longestside")
		}
	}
}

// BenchmarkAblationAssignment compares the resampled predictor's
// nearest-box assignment against discarding points outside every box.
func BenchmarkAblationAssignment(b *testing.B) {
	env := newAblationEnv(b, 35)
	for i := 0; i < b.N; i++ {
		normal, err := core.PredictResampled(env.pf, env.config(36))
		if err != nil {
			b.Fatal(err)
		}
		cfg := env.config(36)
		cfg.DiscardOutside = true
		discard, err := core.PredictResampled(env.pf, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(absPct(stats.RelativeError(normal.Mean, env.measured)), "relerr_nearest_%")
			b.ReportMetric(absPct(stats.RelativeError(discard.Mean, env.measured)), "relerr_discard_%")
		}
	}
}

// BenchmarkAblationAdaptiveCompensation compares the paper's nominal
// sigma_lower compensation against the per-area effective-rate
// extension, at a forced small h_upper where areas overflow.
func BenchmarkAblationAdaptiveCompensation(b *testing.B) {
	env := newAblationEnv(b, 37)
	topo := rtree.NewTopology(len(env.data), env.g)
	hMin, _, err := topo.HUpperBounds(1000, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfgN := env.config(38)
		cfgN.HUpper = hMin
		nominal, err := core.PredictResampled(env.pf, cfgN)
		if err != nil {
			b.Fatal(err)
		}
		cfgA := env.config(38)
		cfgA.HUpper = hMin
		cfgA.AdaptiveCompensation = true
		adaptive, err := core.PredictResampled(env.pf, cfgA)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(absPct(stats.RelativeError(nominal.Mean, env.measured)), "relerr_nominal_%")
			b.ReportMetric(absPct(stats.RelativeError(adaptive.Mean, env.measured)), "relerr_adaptive_%")
		}
	}
}

// BenchmarkRangeQueries runs the range-query extension: measured
// versus resampled-predicted accesses across selectivities.
func BenchmarkRangeQueries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RangeQueries(benchOpt(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			var worst float64
			for _, row := range res.Rows {
				if e := math.Abs(row.RelErr); e > worst {
					worst = e
				}
			}
			b.ReportMetric(worst*100, "relerr_worst_%")
		}
	}
}

// BenchmarkOtherStructures runs the Section 4.7 generality extension:
// the sampling model on the R*-tree and the SS-tree.
func BenchmarkOtherStructures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.OtherStructures(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			for _, row := range res.Rows {
				switch row.Structure {
				case "VAMSplit R*-tree":
					b.ReportMetric(absPct(row.RelErr), "relerr_rtree_%")
				case "SS-tree":
					b.ReportMetric(absPct(row.RelErr), "relerr_sstree_%")
				}
			}
		}
	}
}

// BenchmarkDynamicIndex grows an R*-tree by insertion and predicts its
// accesses at the measured storage utilization.
func BenchmarkDynamicIndex(b *testing.B) {
	opt := experiments.Options{Scale: 0.1, Queries: 50, K: 21, Seed: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiments.DynamicIndex(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			b.ReportMetric(res.Utilization*100, "utilization_%")
			b.ReportMetric(absPct(res.RelErr), "relerr_dynmini_%")
			b.ReportMetric(absPct(res.RelErrBulkMini), "relerr_bulkmini_%")
		}
	}
}

// BenchmarkAllDatasets sweeps every Table 1 stand-in, reporting the
// worst relative error (the paper's Section 5 claim of reasonable
// predictions on all five datasets, including 360-d and 617-d).
func BenchmarkAllDatasets(b *testing.B) {
	opt := experiments.Options{Scale: 0.05, Queries: 30, K: 21, Seed: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiments.AllDatasets(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			var worst float64
			for _, row := range res.Rows {
				if e := math.Abs(row.RelErr); e > worst {
					worst = e
				}
			}
			b.ReportMetric(worst*100, "relerr_worst_%")
		}
	}
}

// BenchmarkSweepWorkers measures the table3 sweep wall-clock across
// pool widths: the rows (resampled and cutoff predictions per h_upper,
// plus the on-disk baseline) run as concurrent tasks on the shared
// pool, each with its own staged disk and RNGs. The results are
// invariant under the worker count (tested in internal/experiments);
// only the wall-clock changes. scripts/bench.sh records the w1/wN
// speedups in BENCH_build.json.
func BenchmarkSweepWorkers(b *testing.B) {
	// Warm the shared-environment cache so every width pays the same
	// (zero) dataset-staging cost inside the timed region.
	if _, err := experiments.Table3(benchOpt()); err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("table3/w%d", w), func(b *testing.B) {
			prev := SetWorkers(w)
			defer SetWorkers(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Table3(benchOpt()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServe runs the concurrent-serving extension: readers
// issuing k-NN queries against the live snapshot while a writer
// ingests and republishes, reporting the latency quantiles from the
// server's reservoir sketch and the sustained throughput.
// scripts/bench.sh records them in BENCH_serve.json.
func BenchmarkServe(b *testing.B) {
	opt := experiments.Options{Scale: 0.05, Queries: 250, K: 21, Seed: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Serve(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			b.ReportMetric(float64(res.KNN.P50.Microseconds()), "p50_us")
			b.ReportMetric(float64(res.KNN.P95.Microseconds()), "p95_us")
			b.ReportMetric(float64(res.KNN.P99.Microseconds()), "p99_us")
			b.ReportMetric(res.Throughput, "queries/s")
			b.ReportMetric(float64(res.Generations), "generations")
		}
	}
}

// BenchmarkServeShards sweeps the serving shard count: the same mixed
// read/write workload at S=1, 4, and 8, reporting the steady-state
// per-publication flatten time and durable bytes — the costs
// dirty-shard-only republication divides by S — alongside the k-NN
// latency quantiles. scripts/bench.sh records the sweep in
// BENCH_serve.json and derives the S=8 vs S=1 reduction ratios.
func BenchmarkServeShards(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("s%d", shards), func(b *testing.B) {
			opt := experiments.Options{
				Scale: 0.05, Queries: 250, K: 21, Seed: 1,
				Shards: shards, FlattenEvery: 16,
			}
			for i := 0; i < b.N; i++ {
				res, err := experiments.Serve(opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + res.String())
					b.ReportMetric(float64(res.FlattenPerGen.Microseconds())/1000, "flatten_ms_gen")
					b.ReportMetric(float64(res.BytesPerGen)/1024, "kb_gen")
					b.ReportMetric(float64(res.KNN.P50.Microseconds()), "p50_us")
					b.ReportMetric(float64(res.KNN.P95.Microseconds()), "p95_us")
					b.ReportMetric(float64(res.KNN.P99.Microseconds()), "p99_us")
					b.ReportMetric(float64(res.Generations), "generations")
					b.ReportMetric(res.Throughput, "queries/s")
				}
			}
		})
	}
}

// BenchmarkPager runs the persistence extension: indexes saved to real
// page-aligned snapshot files and the k-NN workload replayed through
// the pager's ReadAt path, reporting the predictor's leaf accesses
// against the file-measured page reads and whether every paged query
// matched its in-memory twin bit for bit. scripts/bench.sh records
// them in BENCH_pager.json.
func BenchmarkPager(b *testing.B) {
	opt := experiments.Options{Scale: 0.05, Queries: 100, K: 21, Seed: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Pager(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			identical := 0
			for _, row := range res.Rows {
				if row.BitIdentical {
					identical++
				}
				label := fmt.Sprintf("d%d_%dB", row.Dim, row.PageBytes)
				b.ReportMetric(row.PredictedAccesses, label+"_pred_leaf")
				b.ReportMetric(row.MeasuredAccesses, label+"_meas_leaf")
				b.ReportMetric(row.PagesPerQuery, label+"_pages_q")
			}
			b.ReportMetric(float64(identical), "identical_rows")
		}
	}
}

// BenchmarkPagerBackends times one paged k-NN query against the same
// snapshot file through each read backend — ReadAt (every leaf row
// fetched with a positioned read) versus mmap (zero-copy rows out of a
// read-only file mapping) — and reports the pages each backend charged
// per query. ReadAt recharges every page touch; mmap counts faults
// (first touches), so its pages/query reads lower by design.
// scripts/bench.sh records the ns/op of both and the readat/mmap
// speedup in BENCH_pager.json.
func BenchmarkPagerBackends(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	spec := dataset.Texture48.Scaled(0.05)
	data := spec.Generate(rng).Points
	g := rtree.Geometry{Dim: spec.Dim, PageBytes: 8192, Utilization: rtree.DefaultUtilization}
	ft := rtree.Build(data, rtree.ParamsForGeometry(g)).Flatten()
	path := b.TempDir() + "/backends.hdsn"
	if _, err := pager.WriteFileAtomic(path, ft, 8192); err != nil {
		b.Fatal(err)
	}
	queries := make([][]float64, 100)
	for i := range queries {
		queries[i] = data[rng.Intn(len(data))]
	}

	backends := []pager.Backend{pager.BackendReadAt}
	if pager.MmapSupported() {
		backends = append(backends, pager.BackendMmap)
	}
	for _, be := range backends {
		be := be
		b.Run(be.String(), func(b *testing.B) {
			snap, err := pager.OpenWith(path, pager.Options{Backend: be})
			if err != nil {
				b.Fatal(err)
			}
			defer snap.Close()
			tree := snap.Tree()
			// Warm once so the mmap run counts steady-state faults, not
			// the first-touch population of the page cache.
			query.MeasureKNNPaged(tree, snap, queries[:1], 21)
			snap.ResetCounters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(queries)
				query.MeasureKNNPaged(tree, snap, queries[j:j+1], 21)
			}
			b.StopTimer()
			io := snap.Counters()
			b.ReportMetric(float64(io.Transfers)/float64(b.N), "pages/query")
		})
	}
}

// BenchmarkIndexKNN measures the raw query throughput of the index
// itself (micro-benchmark; not a paper artifact).
func BenchmarkIndexKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	data := dataset.Texture60.Scaled(0.1).Generate(rng).Points
	ix, err := Build(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.KNN(data[i%len(data)], 21); err != nil {
			b.Fatal(err)
		}
	}
}
