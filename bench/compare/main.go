// Command compare judges a change against its parent from the result
// files of paired benchmark runs (bench/pairs.sh writes them):
//
//	go run ./compare PARENT_DIR CHANGE_DIR
//
// Runs pair up by workload and seed. For every end-to-end metric of
// every workload it prints one row: each side's median and quartiles,
// the share of pairs the change won (ties count for neither side), and
// a verdict:
//
//   - gain: the change won at least 9 of 10 pairs and the medians differ
//     by more than the parent's quartile spread;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the parent's own spread exceeds the bound, so a
//     regression that size could hide in the noise — unless every
//     change run reads better than every parent run (then: gain);
//   - unchanged: none of the above.
//
// A metric with bound 0 (exact, such as simulated I/O or failures) is
// compared pair by pair instead: any pair where the change reads worse
// is a regression.
//
// It exits 1 when any metric regressed.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

type metric struct {
	Name   string   `json:"name"`
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
	Layer  bool     `json:"layer"`
}

type result struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    bool     `json:"trace"`
	Correct  bool     `json:"correct"`
	Invalid  string   `json:"invalid"`
	Metrics  []metric `json:"metrics"`
}

// key names one metric of one workload.
type key struct{ workload, metric string }

// side holds one side's values per metric, by seed, with the metric's
// unit, direction and bound.
type side struct {
	values map[key]map[int64]float64
	spec   map[key]metric
}

func load(dir string) (side, error) {
	s := side{values: map[key]map[int64]float64{}, spec: map[key]metric{}}
	files, err := filepath.Glob(filepath.Join(dir, "*-seed*.json"))
	if err != nil {
		return s, err
	}
	invalid := 0
	for _, f := range files {
		if strings.HasSuffix(f, "-spans.json") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return s, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return s, fmt.Errorf("%s: %w", f, err)
		}
		if r.Invalid != "" {
			invalid++
		}
		if r.Trace || !r.Correct || r.Invalid != "" {
			continue
		}
		for _, m := range r.Metrics {
			if m.Layer || m.Bound == nil {
				continue
			}
			k := key{r.Workload, m.Name}
			if s.values[k] == nil {
				s.values[k] = map[int64]float64{}
			}
			s.values[k][r.Seed] = m.Value
			s.spec[k] = m
		}
	}
	if invalid > 0 {
		fmt.Fprintf(os.Stderr, "compare: %s: left out %d runs marked invalid\n", dir, invalid)
	}
	if len(s.values) == 0 {
		return s, fmt.Errorf("%s: no usable result files", dir)
	}
	return s, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method (Python's statistics.quantiles default).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		h := p * float64(len(s)+1)
		i := int(math.Floor(h))
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (h-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// verdict applies the paired-comparison rule to one metric.
func verdict(m metric, parent, change []float64) (string, float64) {
	p1, pm, p3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	sign := 1.0 // > 0 means the change is worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * (cm - pm) / math.Abs(pm)
	if pm == 0 {
		worse = sign * (cm - pm)
	}
	wins := 0
	for i := range parent {
		if sign*(change[i]-parent[i]) < 0 {
			wins++
		}
	}
	share := float64(wins) / float64(len(parent))
	bound := *m.Bound
	if bound == 0 {
		// An exact metric differs between seeds but repeats for one seed,
		// so it is judged pair by pair.
		for i := range parent {
			if sign*(change[i]-parent[i]) > 0 {
				return "regressed", share
			}
		}
		if wins == len(parent) {
			return "gain", share
		}
		return "unchanged", share
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && sign*(c-p) < 0
		}
	}
	switch {
	case pm != 0 && (p3-p1)/math.Abs(pm) > bound:
		if allBetter {
			return "gain", share
		}
		return "unresolved", share
	case worse > bound:
		return "regressed", share
	case share >= 0.9 && math.Abs(cm-pm) > p3-p1:
		return "gain", share
	}
	return "unchanged", share
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare PARENT_DIR CHANGE_DIR")
		os.Exit(2)
	}
	parent, err := load(os.Args[1])
	if err == nil {
		var change side
		change, err = load(os.Args[2])
		if err == nil {
			os.Exit(report(parent, change))
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}

func report(parent, change side) int {
	keys := make([]key, 0, len(parent.values))
	for k := range parent.values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tbound\twins\tpairs\tverdict")
	code := 0
	for _, k := range keys {
		var ps, cs []float64
		seeds := make([]int64, 0, len(parent.values[k]))
		for s := range parent.values[k] {
			if _, ok := change.values[k][s]; ok {
				seeds = append(seeds, s)
			}
		}
		if len(seeds) == 0 {
			continue
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, s := range seeds {
			ps = append(ps, parent.values[k][s])
			cs = append(cs, change.values[k][s])
		}
		m := parent.spec[k]
		v, share := verdict(m, ps, cs)
		if v == "regressed" {
			code = 1
		}
		p1, pm, p3 := quartiles(ps)
		c1, cm, c3 := quartiles(cs)
		delta := "n/a"
		if pm != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cm-pm)/math.Abs(pm))
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%g\t%.0f%%\t%d\t%s\n",
			k.workload, k.metric, m.Unit, pm, p1, p3, cm, c1, c3, delta, *m.Bound, 100*share, len(seeds), v)
	}
	w.Flush()
	return code
}
