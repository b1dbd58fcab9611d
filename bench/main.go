// Command bench is the end-to-end benchmark of hdidx. It drives the
// public hdidx API — Server.KNN, RangeCount and Insert under open-loop
// and closed-loop load, and the sampling predictor — with inputs it
// generates from a seed, checks the answers against brute force, and
// prints one line per metric followed by a one-line JSON summary.
//
//	go run . -workload knn-read -seed 1 -seconds 15
//	go run -tags benchtrace . -workload all -seed 1 -trace 1
//
// Each workload runs in a child process of its own, so its peak memory
// is its own. The end-to-end load uses only the hdidx facade (and
// internal/dataset to generate points); the per-layer replay that
// -trace 1 adds calls the internal layers and is compiled in only with
// the benchtrace build tag. See README.md for the workloads and the
// metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type workload interface {
	run(rc runCtx) (Result, error)
}

// The workloads. Sizes are set so that a run fits the time the
// benchmark is given on a 2-vCPU host. The open-loop rates are about a
// seventh of the measured capacity, so that a host slowed to half speed
// by its neighbours still serves them with little queueing and no
// request should fail; each still puts at least 20 samples beyond every
// p99.
var workloads = map[string]workload{
	// Reads only, one shard, in memory: the query layer and the
	// batcher do all the work; publication and the pager never run.
	"knn-read": servingSpec{name: "knn-read", scale: 0.02, shards: 1,
		rates: [3]float64{opKNN: 1000}, openShare: 0.6, readers: 32, p99Bound: 0.15, setups: 3},
	// The same reads over 8 shards pay scatter-gather and the k-NN
	// merge on every request.
	"knn-sharded": servingSpec{name: "knn-sharded", scale: 0.02, shards: 8,
		rates: [3]float64{opKNN: 500}, openShare: 0.6, readers: 32, p99Bound: 0.15, setups: 3},
	// Writes beside reads: one insert in 64 per shard fills it and
	// publishes it durably (flatten, write, fsync, manifest, mmap
	// reopen), inline in Insert — about 3 publications a second,
	// competing with the readers for the CPUs.
	"mixed-durable": servingSpec{name: "mixed-durable", scale: 0.02, shards: 4, flattenEvery: 64, durable: true,
		rates: [3]float64{opKNN: 480, opRange: 200, opInsert: 200}, openShare: 0.7, readers: 32, p99Bound: 0.30, setups: 3},
	// The paper's pipeline: the resampled predictor; serving and the
	// pager do nothing.
	"predict": predictSpec{name: "predict", scale: 0.1, memory: 1000, queries: 500, setups: 9, minEstimates: 8},
}

var workloadOrder = []string{"knn-read", "knn-sharded", "mixed-durable", "predict"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "1 adds root spans and the per-layer replay (build with -tags benchtrace)")
	flag.StringVar(&o.out, "out", ".bench_build/results", "directory for result and span files")
	child := flag.Bool("child", false, "run the workload in this process (the parent process starts itself this way)")
	flag.Parse()

	names := workloadOrder
	if o.workload != "all" {
		names = []string{o.workload}
	}
	for _, n := range names {
		if workloads[n] == nil {
			usage(fmt.Sprintf("unknown workload %q", o.workload))
		}
	}
	switch {
	case o.seconds < 1:
		usage("-seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		usage("-trace must be 0 or 1")
	case o.trace == 1 && !traceBuilt:
		usage("-trace 1 needs the layer replay: build with -tags benchtrace")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *child {
		os.Exit(runChild(o))
	}

	var results []Result
	for _, name := range names {
		res, err := spawn(o, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, res.Reason)
		} else {
			printResult(os.Stdout, res)
			if err := writeJSON(filepath.Join(o.out, resultName(res)+".json"), res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		results = append(results, res)
	}
	if !printSummary(os.Stdout, results, o.trace == 1, len(names) > 1) {
		os.Exit(1)
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	flag.Usage()
	os.Exit(2)
}

// spawn runs one workload in a child process and returns its result.
func spawn(o options, name string) (Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return Result{}, err
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-out", o.out)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	dieWithParent(cmd)
	// The child exits 1 when its answers were wrong; its result says why.
	runErr := cmd.Run()
	var res Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return res, fmt.Errorf("%s: no result from the child process (%v): %v", name, runErr, err)
	}
	return res, nil
}

// runChild runs one workload in this process, writes its result as JSON
// to standard output, and returns the exit code: 1 when the answers were
// wrong or the run aborted.
func runChild(o options) int {
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	rc := runCtx{seed: o.seed, measured: time.Duration(o.seconds) * time.Second, tmp: tmp}
	if o.trace == 1 {
		rc.spans = newSpanLog()
	}
	res, err := workloads[o.workload].run(rc)
	res.Workload, res.Seed, res.Seconds, res.Trace, res.Env = o.workload, o.seed, o.seconds, o.trace == 1, env()
	if err == nil && rc.spans != nil {
		self := rc.spans.selfTimes()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			res.layer("span."+n+".self_ms", float64(self[n])/float64(time.Millisecond), "ms")
		}
		err = rc.spans.write(filepath.Join(o.out, resultName(res)+"-spans.json"))
	}
	// A latency quantile that lands on a failed request is undefined. A
	// detailed metric is left out; a headline metric is required, and a
	// load that overran the server that far fails the run.
	kept := res.Metrics[:0]
	for _, m := range res.Metrics {
		switch {
		case !math.IsInf(m.Value, 0) && !math.IsNaN(m.Value):
			kept = append(kept, m)
		case m.Headline && err == nil:
			err = fmt.Errorf("%s is undefined: %d of %d requests failed", m.Name, res.Failed, res.Attempted)
		default:
			res.Undefined = append(res.Undefined, m.Name)
		}
	}
	res.Metrics = kept
	if err != nil {
		res.Correct, res.Reason, res.Metrics = false, err.Error(), nil
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func resultName(r Result) string {
	s := fmt.Sprintf("%s-seed%d", r.Workload, r.Seed)
	if r.Trace {
		s += "-trace"
	}
	return s
}

func env() Env {
	e := Env{HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	modified := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				e.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	e.Commit += modified
	return e
}

// printResult prints every metric as "workload metric value unit",
// with the sample count behind a quantile and how many samples lie
// beyond it.
func printResult(w io.Writer, r Result) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s %s", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Quantile {
			fmt.Fprintf(w, " beyond=%d", m.Beyond)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s attempted %d\n%s failed %d\n", r.Workload, r.Attempted, r.Workload, r.Failed)
	for _, name := range r.Undefined {
		fmt.Fprintf(w, "%s %s undefined: too many requests failed\n", r.Workload, name)
	}
	if r.Invalid != "" {
		fmt.Fprintf(w, "%s invalid %s\n", r.Workload, r.Invalid)
	}
	fmt.Fprintf(w, "%s host_cpus %d\n%s gomaxprocs %d\n%s go_version %s\n%s commit %s\n",
		r.Workload, r.Env.HostCPUs, r.Workload, r.Env.GOMAXPROCS, r.Workload, r.Env.GoVersion, r.Workload, r.Env.Commit)
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary prints the last line: one JSON object with the headline
// metrics of the mode (end-to-end, or per-layer with -trace 1). With
// several workloads the metric names are prefixed "workload/". It
// reports whether every workload was correct; if one was not, the
// summary carries no metrics.
func printSummary(w io.Writer, results []Result, trace, prefix bool) bool {
	sum := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	for _, r := range results {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for _, m := range r.Metrics {
			if m.Headline && m.Layer == trace {
				name := m.Name
				if prefix {
					name = r.Workload + "/" + name
				}
				sum.Metrics[name] = valueUnit{m.Value, m.Unit}
			}
		}
	}
	if !sum.Correct {
		sum.Metrics = map[string]valueUnit{}
	}
	b, _ := json.Marshal(sum) // plain structs; runChild rejected non-finite values
	fmt.Fprintln(w, string(b))
	return sum.Correct
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
