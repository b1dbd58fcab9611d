package main

import "testing"

func TestVerdict(t *testing.T) {
	lowerBound := func(b float64) metric { return metric{Better: "lower", Bound: &b} }
	higher := func(b float64) metric { return metric{Better: "higher", Bound: &b} }
	ten := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%3)
		}
		return xs
	}
	for _, c := range []struct {
		name           string
		m              metric
		parent, change []float64
		want           string
	}{
		{"same", lowerBound(0.1), ten(100, 1), ten(100, 1), "unchanged"},
		{"slower within bound", lowerBound(0.1), ten(100, 1), ten(105, 1), "unchanged"},
		{"slower beyond bound", lowerBound(0.1), ten(100, 1), ten(120, 1), "regressed"},
		{"faster in every pair", lowerBound(0.1), ten(100, 1), ten(90, 1), "gain"},
		{"higher is better", higher(0.1), ten(100, 1), ten(80, 1), "regressed"},
		{"noisy parent", lowerBound(0.1), ten(100, 30), ten(105, 30), "unresolved"},
		{"noisy parent, change always better", lowerBound(0.1), ten(100, 30), ten(20, 1), "gain"},
		{"exact, one pair worse", lowerBound(0), []float64{1, 2, 3}, []float64{1, 2.5, 3}, "regressed"},
		{"exact, equal", lowerBound(0), []float64{0, 0, 0}, []float64{0, 0, 0}, "unchanged"},
	} {
		if got, _ := verdict(c.m, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
