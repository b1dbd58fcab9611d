// Command idxpredict estimates the leaf-page accesses of a k-NN
// workload on a VAMSplit R*-tree over a dataset, using the
// sampling-based predictors of Lang & Singh (SIGMOD 2001), and
// optionally verifies the estimate against a measurement on the fully
// built index.
//
// Usage:
//
//	idxpredict -data texture60.hdx -method resampled -k 21 -q 500 -m 10000
//	idxpredict -data texture60.hdx -method cutoff -measure
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"hdidx"
	"hdidx/internal/dataset"
	"hdidx/internal/prof"
	"hdidx/internal/query"
)

func main() {
	var (
		dataPath   = flag.String("data", "", "dataset file written by datagen (required)")
		method     = flag.String("method", "resampled", "prediction method: basic, cutoff, or resampled")
		k          = flag.Int("k", 21, "k of the k-NN workload")
		q          = flag.Int("q", 500, "number of density-biased sample queries")
		m          = flag.Int("m", 10000, "memory size in points")
		pageBytes  = flag.Int("page", 8192, "index page size in bytes")
		radius     = flag.Float64("range", 0, "range-query radius (0 = k-NN workload)")
		seed       = flag.Int64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "worker-pool width for parallel build and scans (0 = GOMAXPROCS)")
		measure    = flag.Bool("measure", false, "also build the full index in memory and measure the workload")
		savePath   = flag.String("save", "", "build the index and save its query snapshot to this file (page-aligned, checksummed format)")
		loadPath   = flag.String("load", "", "with -measure: measure the workload on an index opened from this snapshot file instead of rebuilding")
		trace      = flag.Bool("trace", false, "print the per-phase cost breakdown of the prediction")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "idxpredict: -workers %d is negative (0 = GOMAXPROCS)\n", *workers)
		os.Exit(2)
	}
	hdidx.SetWorkers(*workers)
	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "idxpredict: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idxpredict:", err)
		os.Exit(1)
	}
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "idxpredict:", err)
		stopProf()
		os.Exit(1)
	}
	d, err := dataset.Load(*dataPath)
	if err != nil {
		die(err)
	}
	fmt.Printf("dataset: %d points, %d dimensions\n", d.N(), d.Dim())

	p, err := hdidx.NewPredictor(d.Points, hdidx.WithPageBytes(*pageBytes))
	if err != nil {
		die(err)
	}
	opts := hdidx.EstimateOptions{K: *k, Queries: *q, Memory: *m, Seed: *seed}
	var est hdidx.Estimate
	if *radius > 0 {
		est, err = p.EstimateRange(hdidx.Method(*method), *radius, opts)
	} else {
		est, err = p.EstimateKNN(hdidx.Method(*method), opts)
	}
	if err != nil {
		die(err)
	}
	fmt.Printf("method:               %s\n", est.Method)
	fmt.Printf("predicted accesses:   %.1f leaf pages/query\n", est.MeanAccesses)
	if est.HUpper > 0 {
		fmt.Printf("h_upper:              %d (sigma_upper=%.4f sigma_lower=%.4f)\n",
			est.HUpper, est.SigmaUpper, est.SigmaLower)
	}
	fmt.Printf("prediction I/O cost:  %.3f s (simulated disk)\n", est.PredictionIOSeconds)
	if *trace {
		fmt.Println()
		fmt.Print(est.PhaseReport())
	}

	if *savePath != "" {
		ix, err := hdidx.Build(d.Points, hdidx.WithPageBytes(*pageBytes))
		if err != nil {
			die(err)
		}
		if err := ix.Save(*savePath); err != nil {
			die(err)
		}
		fmt.Printf("saved snapshot:       %s (%d points, %d leaves, height %d)\n",
			*savePath, ix.Len(), ix.NumLeaves(), ix.Height())
	}

	if *measure {
		var measured float64
		if *loadPath != "" {
			measured, err = measureLoaded(*loadPath, d.Points, *radius, *k, *q, *seed)
		} else if *radius > 0 {
			measured, err = p.MeasureRangeAccesses(*radius, opts)
		} else {
			measured, err = p.MeasureKNNAccesses(opts)
		}
		if err != nil {
			die(err)
		}
		fmt.Printf("measured accesses:    %.1f leaf pages/query\n", measured)
		fmt.Printf("relative error:       %+.1f%%\n", (est.MeanAccesses-measured)/measured*100)
	}
	stopProf()
}

// measureLoaded answers the same seeded workload the predictors model,
// but against an index opened from a saved snapshot file — verifying a
// persisted index serves exactly what a freshly built one would.
func measureLoaded(path string, points [][]float64, radius float64, k, q int, seed int64) (float64, error) {
	ix, err := hdidx.Open(path)
	if err != nil {
		return 0, err
	}
	defer ix.Close()
	serving := "resident"
	if ix.Mapped() {
		serving = "mmap (zero-copy)"
	}
	fmt.Printf("loaded snapshot:      %s (%d points, %d leaves, height %d, %s)\n",
		path, ix.Len(), ix.NumLeaves(), ix.Height(), serving)
	if k > ix.Len() {
		k = ix.Len()
	}
	_, centers := query.DensityBiased(points, q, rand.New(rand.NewSource(seed)))
	total := 0
	for _, center := range centers {
		var st hdidx.QueryStats
		if radius > 0 {
			_, st, err = ix.RangeCount(center, radius)
		} else {
			_, st, err = ix.KNN(center, k)
		}
		if err != nil {
			return 0, err
		}
		total += st.LeafAccesses
	}
	return float64(total) / float64(q), nil
}
