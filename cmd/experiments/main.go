// Command experiments reproduces the tables and figures of
// Lang & Singh (SIGMOD 2001) and prints them in the paper's layout.
//
// Usage:
//
//	experiments -run table3 -scale 0.1
//	experiments -run all -scale 0.05 -queries 100
//
// Scale 1.0 regenerates the paper-size experiments (minutes of CPU);
// smaller scales keep the shapes at a fraction of the cost. The
// analytic sweeps (fig9, fig10, sweepn) always run at paper size.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hdidx/internal/experiments"
	"hdidx/internal/obs"
	"hdidx/internal/par"
	"hdidx/internal/prof"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiment: fig2, table3, fig11, fig12, unif8, table4, fig9, fig10, sweepn, fig13, fig14, range, structures, dynamic, datasets, serve, pager, or all")
		scale      = flag.Float64("scale", 0.1, "dataset scale factor")
		queries    = flag.Int("queries", 0, "sample queries (default 500)")
		k          = flag.Int("k", 0, "k of k-NN (default 21)")
		m          = flag.Int("m", 0, "memory in points (default 10000*scale)")
		seed       = flag.Int64("seed", 1, "random seed")
		shards     = flag.Int("shards", 0, "serving experiment shard count (default 1): dirty-shard-only republication; a k-NN query is one best-first search over every shard, bit-identical to one tree")
		flatEvery  = flag.Int("flatten-every", 0, "serving experiment per-shard publication threshold in inserts (default 128)")
		workers    = flag.Int("workers", 0, "worker-pool width for parallel builds and concurrent sweep rows (0 = GOMAXPROCS)")
		trace      = flag.Bool("trace", false, "collect per-phase traces and print them after the runs")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -workers %d is negative (0 = GOMAXPROCS)\n", *workers)
		os.Exit(2)
	}
	par.SetWorkers(*workers)
	opt := experiments.Options{Scale: *scale, Queries: *queries, K: *k, M: *m, Seed: *seed, Shards: *shards, FlattenEvery: *flatEvery}
	if *trace {
		obs.Default.SetEnabled(true)
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	ids := strings.Split(*run, ",")
	if *run == "all" {
		ids = []string{"fig2", "table3", "fig11", "fig12", "unif8", "table4", "fig9", "fig10", "sweepn", "fig13", "fig14", "range", "structures", "dynamic", "datasets", "serve", "pager"}
	}
	for _, id := range ids {
		if err := runOne(strings.TrimSpace(id), opt); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			stopProf()
			os.Exit(1)
		}
		fmt.Println()
	}
	if *trace {
		fmt.Println("=== phase traces ===")
		obs.Default.WriteText(os.Stdout)
	}
	stopProf()
}

func runOne(id string, opt experiments.Options) error {
	switch id {
	case "fig2":
		r, err := experiments.Fig2(opt)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "table3":
		r, err := experiments.Table3(opt)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "fig11":
		r, err := experiments.Correlation(opt, 0)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "fig12":
		small := opt
		if small.M == 0 {
			small.M = int(1000*opt.Scale + 0.5)
			if small.M < 200 {
				small.M = 200
			}
		}
		r, err := experiments.Correlation(small, 0)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "unif8":
		full := opt
		full.Scale = 1 // the uniform check is cheap at paper scale
		full.M = 10000
		r, err := experiments.Uniform8D(full)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "table4":
		r, err := experiments.Table4(opt)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "fig9":
		r, err := experiments.Fig9()
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "fig10":
		r, err := experiments.Fig10()
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "sweepn":
		r, err := experiments.SweepDatasetSize()
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "fig13":
		r, err := experiments.Fig13(opt, nil)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "fig14":
		r, err := experiments.Fig14(opt, nil)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "range":
		r, err := experiments.RangeQueries(opt, nil)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "structures":
		r, err := experiments.OtherStructures(opt)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "dynamic":
		r, err := experiments.DynamicIndex(opt)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "datasets":
		r, err := experiments.AllDatasets(opt)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "serve":
		r, err := experiments.Serve(opt)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "pager":
		r, err := experiments.Pager(opt)
		if err != nil {
			return err
		}
		fmt.Print(r)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
