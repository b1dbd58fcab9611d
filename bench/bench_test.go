package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// tiny shrinks a workload to about 2,000 points and light load, so the
// smoke test stays fast under -race.
func tiny(w workload) workload {
	switch s := w.(type) {
	case servingSpec:
		s.scale = 2000.0 / 275465
		s.setups = 1
		for i := range s.rates {
			s.rates[i] /= 5
		}
		s.readers = 4
		return s
	case predictSpec:
		s.scale = 3000.0 / 275465
		s.memory, s.queries, s.setups, s.minEstimates = 500, 50, 1, 2
		return s
	}
	panic("unknown workload type")
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bm.Workloads), len(workloadOrder))
	}
	for i, wl := range bm.Workloads {
		if wl.Name != workloadOrder[i] || workloads[wl.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, wl.Name, workloadOrder[i])
		}
	}
	modes := []bool{false}
	if traceBuilt {
		modes = append(modes, true)
	}
	for _, name := range workloadOrder {
		for _, traced := range modes {
			rc := runCtx{seed: 3, measured: time.Second, tmp: t.TempDir()}
			want := bm.EndToEnd
			if traced {
				rc.spans = newSpanLog()
				want = bm.PerLayer
			}
			res, err := tiny(workloads[name]).run(rc)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s (trace %v): correct %v, %d attempted", name, traced, res.Correct, res.Attempted)
			}
			if res.Invalid != "" {
				t.Logf("%s: %s (expected on a loaded test host)", name, res.Invalid)
			}
			got := map[string]Metric{}
			for _, m := range res.Metrics {
				if m.Headline && m.Layer == traced {
					got[m.Name] = m
				}
			}
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): no %s", name, traced, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s: %s in %s, BENCHMARK.json says %s", name, m.Name, g.Unit, m.Unit)
				case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
					t.Errorf("%s: %s = %v", name, m.Name, g.Value)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s (trace %v): %d headline metrics, BENCHMARK.json names %d", name, traced, len(got), len(want))
			}
		}
	}
}

func TestScheduleIsDeterministicAndOnRate(t *testing.T) {
	rates := [3]float64{opKNN: 1000, opRange: 250, opInsert: 100}
	const dur = 10 * time.Second
	gen := func(seed int64) []op {
		var next int32
		return schedule(rand.New(rand.NewSource(seed)), dur, rates, queryPool, &next)
	}
	a := gen(7)
	if !reflect.DeepEqual(a, gen(7)) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, gen(8)) {
		t.Fatal("two seeds gave the same schedule")
	}
	var count [3]int
	inserts := int32(0)
	for i, o := range a {
		if o.at < 0 || o.at >= dur || (i > 0 && o.at < a[i-1].at) {
			t.Fatalf("op %d at %v: outside [0, %v) or out of order", i, o.at, dur)
		}
		if o.kind == opInsert {
			if o.arg != inserts {
				t.Fatalf("insert %d takes stream point %d", inserts, o.arg)
			}
			inserts++
		}
		count[o.kind]++
	}
	for kind, rate := range rates {
		got := float64(count[kind]) / dur.Seconds()
		if math.Abs(got-rate) > 0.02*rate {
			t.Errorf("%s: %.1f/s offered, want %.0f/s within 2%%", opNames[kind], got, rate)
		}
	}
}
