// Page-size tuning (the Section 6.1 application): pick the index page
// size that minimizes per-query I/O, using the predictor instead of
// building one index per candidate size.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hdidx"
	"hdidx/internal/dataset"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	points := dataset.Texture60.Scaled(0.05).Generate(rng).Points
	fmt.Printf("dataset: %d points, %d dims\n", len(points), len(points[0]))

	p, err := hdidx.NewPredictor(points)
	if err != nil {
		log.Fatal(err)
	}
	opts := hdidx.EstimateOptions{K: 21, Queries: 100, Memory: 1500, Seed: 3}
	best, all, err := p.TunePageSize([]int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}, opts)
	if err != nil {
		log.Fatal(err)
	}

	// The measured column builds each candidate's index: the ground
	// truth the prediction saves building.
	fmt.Printf("%8s %16s %16s %14s\n", "page KB", "pred. accesses", "meas. accesses", "pred. s/query")
	for _, c := range all {
		cand, err := hdidx.NewPredictor(points, hdidx.WithPageBytes(c.PageBytes))
		if err != nil {
			log.Fatal(err)
		}
		measured, err := cand.MeasureKNNAccesses(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %16.1f %16.1f %14.4f\n", c.PageBytes/1024, c.MeanAccesses, measured, c.SecondsPerQuery)
	}
	fmt.Printf("\npredicted optimal page size: %d KB (%.4f s/query)\n", best.PageBytes/1024, best.SecondsPerQuery)
}
