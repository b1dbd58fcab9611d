package main

import (
	"math"
	"sort"
	"time"
)

// Metric is one measured value of one run. Bound is the share of the
// parent's median by which the metric may worsen before a change counts
// as a regression (0 means it must not worsen at all); per-layer
// metrics carry none. Headline metrics are the ones BENCHMARK.json
// names: they are reported on every workload and make up the final
// JSON line.
type Metric struct {
	Name     string   `json:"name"`
	Value    float64  `json:"value"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better,omitempty"`
	Bound    *float64 `json:"bound,omitempty"`
	N        int      `json:"n,omitempty"`
	Quantile bool     `json:"quantile,omitempty"`
	Beyond   int      `json:"beyond,omitempty"`
	Layer    bool     `json:"layer,omitempty"`
	Headline bool     `json:"headline,omitempty"`
}

// Env records where a result was measured.
type Env struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// Result is everything one workload run reports. Correct is false when
// the correctness gate failed or the run aborted on an error, and then
// Reason says why and Metrics is empty. Undefined names the metrics left
// out because so many requests failed that the quantile is a failure.
// Invalid is set when the load generator itself fell behind: the
// latencies are then partly the generator's, and the comparison tool
// leaves the run out.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Reason    string   `json:"reason,omitempty"`
	Undefined []string `json:"undefined,omitempty"`
	Invalid   string   `json:"invalid,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []Metric `json:"metrics"`
	Env       Env      `json:"env"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// headlineLayer names the per-layer metrics BENCHMARK.json lists: the
// ones every workload can measure.
var headlineLayer = map[string]bool{
	"trace.overhead_pct":       true,
	"rtree.build_ms":           true,
	"rtree.flatten_ms":         true,
	"query.knn_p50_us":         true,
	"query.knn_p99_us":         true,
	"query.knn_b16_us_per_q":   true,
	"query.leaf_per_q":         true,
	"query.dir_per_q":          true,
	"unattributed_p50_ms":      true,
	"obs.observe_ns":           true,
	"obs.observe_contended_ns": true,
}

// e2e adds an end-to-end metric.
func (r *Result) e2e(name string, v float64, unit, better string, bound float64) {
	b := bound
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit, Better: better, Bound: &b})
}

// headline adds an end-to-end metric BENCHMARK.json lists.
func (r *Result) headline(name string, v float64, unit, better string, bound float64) {
	r.e2e(name, v, unit, better, bound)
	r.Metrics[len(r.Metrics)-1].Headline = true
}

// layer adds a per-layer metric. It has no bound and no direction: it
// explains end-to-end metrics rather than being judged itself.
func (r *Result) layer(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit, Layer: true, Headline: headlineLayer[name]})
}

// withSamples attaches to the metric added last the sample count behind
// it, and how many samples lie beyond the quantile q it reports (q = 0:
// the metric is no quantile).
func (r *Result) withSamples(n int, q float64) {
	m := &r.Metrics[len(r.Metrics)-1]
	m.N = n
	if q > 0 {
		m.Beyond = n - int(math.Ceil(q*float64(n)))
		m.Quantile = true
	}
}

// metric returns the value of a metric already added.
func (r *Result) metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank q-quantile of xs, which it sorts.
// Failed requests enter as +Inf, so they count as slower than every
// answered one.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durs converts durations to float64 values in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
