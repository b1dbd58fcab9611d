package query

import (
	"math/rand"
	"reflect"
	"testing"

	"hdidx/internal/rtree"
)

// The sharded-identity property: searching S shard trees independently
// and folding through KNNMerge must be bit-identical — radius, neighbor
// list, and tie-breaks — to a single-tree oracle over the union of the
// points. This file property-tests it across dimensions 1–64, shard
// counts {1,2,4,8}, engineered distance ties, and sub-k shards.

// shardSplit deals points round-robin into s shards, mirroring the
// serving layer's assignment.
func shardSplit(data [][]float64, s int) [][][]float64 {
	out := make([][][]float64, s)
	for i, p := range data {
		out[i%s] = append(out[i%s], p)
	}
	return out
}

// shardTrees builds one flat tree per non-empty shard (empty shards
// yield nil, as an empty serving shard yields no candidates).
func shardTrees(shards [][][]float64) []*rtree.FlatTree {
	out := make([]*rtree.FlatTree, len(shards))
	for i, pts := range shards {
		if len(pts) == 0 {
			continue
		}
		cp := make([][]float64, len(pts))
		copy(cp, pts)
		tr := rtree.Build(cp, rtree.BuildParams{LeafCap: 8, DirCap: 4})
		out[i] = tr.Flatten()
	}
	return out
}

// mergeOracle checks one (data, queries, k, shards) configuration
// against the single-tree oracle.
func mergeOracle(t *testing.T, data, queries [][]float64, k, s int) {
	t.Helper()
	cp := make([][]float64, len(data))
	copy(cp, data)
	oracle := rtree.Build(cp, rtree.BuildParams{LeafCap: 8, DirCap: 4}).Flatten()
	trees := shardTrees(shardSplit(data, s))

	// Per-shard searches at k' = min(k, shard cardinality).
	perShard := make([][]Result, len(trees))
	for si, ft := range trees {
		if ft == nil {
			continue
		}
		perShard[si] = make([]Result, len(queries))
		for i, q := range queries {
			perShard[si][i] = KNNSearchFlat(ft, q, min(k, ft.NumPoints))
		}
	}
	for i, q := range queries {
		var parts []Result
		for si := range trees {
			if trees[si] != nil {
				parts = append(parts, perShard[si][i])
			}
		}
		got := KNNMerge(q, k, parts)
		want := KNNSearchFlat(oracle, q, k)
		if got.Radius != want.Radius {
			t.Fatalf("s=%d k=%d query %d: radius %v != oracle %v",
				s, k, i, got.Radius, want.Radius)
		}
		if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
			t.Fatalf("s=%d k=%d query %d: neighbors diverge\n merged: %v\n oracle: %v",
				s, k, i, got.Neighbors, want.Neighbors)
		}
	}
}

// TestKNNMergeMatchesOracle is the main property sweep: random data
// over dims 1..64, S in {1,2,4,8}, k values spanning sub-k shards (k
// larger than every shard's cardinality) up to k == N.
func TestKNNMergeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := []int{1, 2, 3, 8, 16, 64}
	for _, dim := range dims {
		n := 60 + rng.Intn(140)
		data := uniformPoints(n, dim, rng.Int63())
		queries := make([][]float64, 6)
		for i := range queries {
			if i%2 == 0 {
				queries[i] = data[rng.Intn(n)]
			} else {
				queries[i] = uniformPoints(1, dim, rng.Int63())[0]
			}
		}
		for _, s := range []int{1, 2, 4, 8} {
			for _, k := range []int{1, 3, n/2 + 1, n} {
				mergeOracle(t, data, queries, k, s)
			}
		}
	}
}

// TestKNNMergeTieBreaks engineers exact distance ties — duplicated
// coordinates on a lattice, plus exactly duplicated points spread
// across different shards — where only the canonical (distance, lex)
// order keeps the merged answer equal to the oracle's.
func TestKNNMergeTieBreaks(t *testing.T) {
	var data [][]float64
	// 4x4x1 lattice: many equidistant points from the center query.
	for x := -2.0; x <= 2; x++ {
		for y := -2.0; y <= 2; y++ {
			data = append(data, []float64{x, y, 0})
		}
	}
	// Exact duplicates, landing in different shards under round-robin.
	for i := 0; i < 6; i++ {
		data = append(data, []float64{1, 1, 0})
	}
	queries := [][]float64{{0, 0, 0}, {0.5, 0.5, 0}, {1, 1, 0}}
	for _, s := range []int{2, 3, 4, 8} {
		for _, k := range []int{1, 4, 9, len(data)} {
			mergeOracle(t, data, queries, k, s)
		}
	}
}

// TestKNNMergeSubKShards pins the sub-k edge explicitly: more shards
// than points, so some shards are empty and every shard holds fewer
// than k points.
func TestKNNMergeSubKShards(t *testing.T) {
	data := uniformPoints(5, 4, 9)
	queries := [][]float64{data[0], {0.1, 0.2, 0.3, 0.4}}
	for _, s := range []int{4, 8} {
		mergeOracle(t, data, queries, 5, s)
	}
}

// TestKNNMergeCounters checks the cost accounting: merged access
// counters are the sums over parts.
func TestKNNMergeCounters(t *testing.T) {
	data := uniformPoints(300, 8, 17)
	trees := shardTrees(shardSplit(data, 4))
	q := data[11]
	var parts []Result
	wantLeaf, wantDir := 0, 0
	for _, ft := range trees {
		r := KNNSearchFlat(ft, q, 10)
		parts = append(parts, r)
		wantLeaf += r.LeafAccesses
		wantDir += r.DirAccesses
	}
	got := KNNMerge(q, 10, parts)
	if got.LeafAccesses != wantLeaf || got.DirAccesses != wantDir {
		t.Fatalf("merged counters %d/%d, want summed %d/%d",
			got.LeafAccesses, got.DirAccesses, wantLeaf, wantDir)
	}
}
