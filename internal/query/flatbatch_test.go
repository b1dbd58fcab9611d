package query

import (
	"math/rand"
	"reflect"
	"testing"

	"hdidx/internal/rtree"
)

// TestKNNBatchMatchesSingle pins the batch contract: every result of
// KNNSearchFlatBatch deep-equals its standalone KNNSearchFlat run —
// radius, neighbor list, and leaf/dir access counts — over random
// geometries, batch sizes, and mixed per-query k values. The last
// trials batch queries clustered around one data point, the case where
// a shared traversal would charge each query for its neighbors' pages.
func TestKNNBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 70; trial++ {
		data, tr := buildRandomTree(rng)
		ft := tr.Flatten()
		b := 1 + rng.Intn(90)
		center := data[rng.Intn(len(data))]
		queries := make([][]float64, b)
		ks := make([]int, b)
		for i := range queries {
			switch {
			case trial >= 60:
				q := make([]float64, len(center))
				for d := range q {
					q[d] = center[d] + 0.01*rng.NormFloat64()
				}
				queries[i] = q
			case rng.Intn(2) == 0:
				queries[i] = data[rng.Intn(len(data))]
			default:
				queries[i] = uniformPoints(1, tr.Dim, rng.Int63())[0]
			}
			ks[i] = 1 + rng.Intn(len(data))
		}
		got := KNNSearchFlatBatch(ft, queries, ks)
		for i := range queries {
			if want := KNNSearchFlat(ft, queries[i], ks[i]); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("trial %d query %d: batch result diverges from single search\n batch:  %+v\n single: %+v",
					trial, i, got[i], want)
			}
		}
	}
}

// TestKNNBatchSharesWork runs a clustered batch — 32 queries near one
// data point — through one shared search scratch and checks that
// sharing it leaks no state between queries: each result deep-equals
// its standalone KNNSearchFlat run.
func TestKNNBatchSharesWork(t *testing.T) {
	data := uniformPoints(4000, 8, 41)
	tr := rtree.Build(data, rtree.BuildParams{LeafCap: 20, DirCap: 10})
	ft := tr.Flatten()
	center := data[17]
	rng := rand.New(rand.NewSource(42))
	queries := make([][]float64, 32)
	ks := make([]int, 32)
	for i := range queries {
		q := make([]float64, len(center))
		for d := range q {
			q[d] = center[d] + 0.01*rng.NormFloat64()
		}
		queries[i] = q
		ks[i] = 10
	}
	batch := KNNSearchFlatBatch(ft, queries, ks)
	for i, q := range queries {
		if single := KNNSearchFlat(ft, q, ks[i]); !reflect.DeepEqual(batch[i], single) {
			t.Fatalf("query %d: batch result diverges from single search\n batch:  %+v\n single: %+v",
				i, batch[i], single)
		}
	}
}

func TestKNNBatchEmptyAndZero(t *testing.T) {
	data := uniformPoints(100, 4, 5)
	ft := rtree.Build(data, rtree.BuildParams{LeafCap: 8, DirCap: 8}).Flatten()
	if res := KNNSearchFlatBatch(ft, nil, nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched ks length did not panic")
		}
	}()
	KNNSearchFlatBatch(ft, [][]float64{data[0]}, nil)
}
