// Command experiments reproduces the tables and figures of
// Lang & Singh (SIGMOD 2001) and prints them in the paper's layout.
//
// Usage:
//
//	experiments -run all -scale 0.05 -queries 100
//
// -run takes a comma-separated list of the ids in the table below, or
// all. Scale 1.0 regenerates the paper-size experiments (minutes of
// CPU); smaller scales keep the shapes at a fraction of the cost. The
// analytic sweeps always run at paper size.
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
		run        = flag.String("run", "all", "comma-separated experiments: "+strings.Join(ids(), ", ")+", or all")
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

	selected := strings.Split(*run, ",")
	if *run == "all" {
		selected = ids()
	}
	for _, id := range selected {
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

// table lists every experiment in the order -run all prints them. The
// analytic sweeps ignore the options.
var table = []struct {
	id  string
	run func(experiments.Options) (fmt.Stringer, error)
}{
	{"fig2", func(o experiments.Options) (fmt.Stringer, error) { return experiments.Fig2(o) }},
	{"table3", func(o experiments.Options) (fmt.Stringer, error) { return experiments.Table3(o) }},
	{"fig11", func(o experiments.Options) (fmt.Stringer, error) { return experiments.Correlation(o, 0) }},
	{"fig12", func(o experiments.Options) (fmt.Stringer, error) {
		if o.M == 0 {
			o.M = max(int(1000*o.Scale+0.5), 200)
		}
		return experiments.Correlation(o, 0)
	}},
	{"unif8", func(o experiments.Options) (fmt.Stringer, error) {
		o.Scale, o.M = 1, 10000 // the uniform check is cheap at paper scale
		return experiments.Uniform8D(o)
	}},
	{"table4", func(o experiments.Options) (fmt.Stringer, error) { return experiments.Table4(o) }},
	{"fig9", func(experiments.Options) (fmt.Stringer, error) { return experiments.Fig9() }},
	{"fig10", func(experiments.Options) (fmt.Stringer, error) { return experiments.Fig10() }},
	{"sweepn", func(experiments.Options) (fmt.Stringer, error) { return experiments.SweepDatasetSize() }},
	{"fig13", func(o experiments.Options) (fmt.Stringer, error) { return experiments.Fig13(o, nil) }},
	{"fig14", func(o experiments.Options) (fmt.Stringer, error) { return experiments.Fig14(o, nil) }},
	{"range", func(o experiments.Options) (fmt.Stringer, error) { return experiments.RangeQueries(o, nil) }},
	{"structures", func(o experiments.Options) (fmt.Stringer, error) { return experiments.OtherStructures(o) }},
	{"dynamic", func(o experiments.Options) (fmt.Stringer, error) { return experiments.DynamicIndex(o) }},
	{"datasets", func(o experiments.Options) (fmt.Stringer, error) { return experiments.AllDatasets(o) }},
	{"serve", func(o experiments.Options) (fmt.Stringer, error) { return experiments.Serve(o) }},
	{"pager", func(o experiments.Options) (fmt.Stringer, error) { return experiments.Pager(o) }},
}

// ids returns the experiment ids in table order.
func ids() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.id
	}
	return out
}

func runOne(id string, opt experiments.Options) error {
	for _, e := range table {
		if e.id == id {
			r, err := e.run(opt)
			if err != nil {
				return err
			}
			fmt.Print(r)
			return nil
		}
	}
	return fmt.Errorf("unknown experiment %q", id)
}
