package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hdidx/internal/dataset"
	"hdidx/internal/rtree"
)

// The sharded-identity property: one best-first search over S shard
// trees (KNNSearchForest) must be bit-identical — radius, neighbor
// list, and tie-breaks — to a single-tree oracle over the union of the
// points, and must read exactly the nodes, in every shard, that meet
// the final k-NN sphere. This file property-tests it across dimensions
// 1–64, shard counts {1,2,4,8}, engineered distance ties, exact
// duplicates in different shards, empty shards, and shards smaller
// than k. KNNMerge, the scatter-gather re-selection the benchmark's
// layer replay still runs, is held to the same answers over the same
// sweep.

// shardSplit deals points round-robin into s shards, mirroring the
// serving layer's assignment.
func shardSplit(data [][]float64, s int) [][][]float64 {
	out := make([][][]float64, s)
	for i, p := range data {
		out[i%s] = append(out[i%s], p)
	}
	return out
}

// shardTrees builds one flat tree per shard. An empty shard yields the
// empty tree an empty serving shard publishes.
func shardTrees(shards [][][]float64) []*rtree.FlatTree {
	out := make([]*rtree.FlatTree, len(shards))
	for i, pts := range shards {
		if len(pts) == 0 {
			out[i] = &rtree.FlatTree{}
			continue
		}
		cp := make([][]float64, len(pts))
		copy(cp, pts)
		tr := rtree.Build(cp, rtree.BuildParams{LeafCap: 8, DirCap: 4})
		out[i] = tr.Flatten()
	}
	return out
}

// singleTree is the single-tree oracle over all of data.
func singleTree(data [][]float64) *rtree.FlatTree {
	cp := make([][]float64, len(data))
	copy(cp, data)
	return rtree.Build(cp, rtree.BuildParams{LeafCap: 8, DirCap: 4}).Flatten()
}

// kthSqDist is the k-th smallest squared distance from q over data.
func kthSqDist(data [][]float64, q []float64, k int) float64 {
	d := make([]float64, len(data))
	for i, p := range data {
		d[i] = sqDist(p, q)
	}
	sort.Float64s(d)
	return d[k-1]
}

// sphereWalk counts, without any search, the nodes of ft whose own
// squared MINDIST from q and every ancestor's are at most b: the pages
// an optimal search bounded by b has to read.
func sphereWalk(ft *rtree.FlatTree, q []float64, b float64) (leaf, dir int) {
	if ft.NumPoints == 0 {
		return 0, 0
	}
	stack := []int32{0}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if ft.Rects.MinSqDist(int(n), q) > b {
			continue
		}
		if ft.ChildCount[n] == 0 {
			leaf++
			continue
		}
		dir++
		for c := ft.ChildStart[n]; c < ft.ChildStart[n]+ft.ChildCount[n]; c++ {
			stack = append(stack, c)
		}
	}
	return leaf, dir
}

// scatterCounts sums the access counts of searching every non-empty
// tree on its own at k' = min(k, tree size).
func scatterCounts(trees []*rtree.FlatTree, q []float64, k int) (leaf, dir int) {
	for _, ft := range trees {
		if ft.NumPoints == 0 {
			continue
		}
		r := KNNSearchFlat(ft, q, min(k, ft.NumPoints))
		leaf += r.LeafAccesses
		dir += r.DirAccesses
	}
	return leaf, dir
}

// checkForest holds KNNSearchForest over trees to the single-tree
// oracle (answers, bitwise) and to the sphere walk (access counts,
// exactly), and its counts to at most the scatter's — equal for one
// tree.
func checkForest(t *testing.T, data [][]float64, oracle *rtree.FlatTree, trees []*rtree.FlatTree, queries [][]float64, k int) {
	t.Helper()
	s := len(trees)
	for i, q := range queries {
		got := KNNSearchForest(trees, q, k)
		want := KNNSearchFlat(oracle, q, k)
		if got.Radius != want.Radius {
			t.Fatalf("s=%d k=%d query %d: radius %v != oracle %v", s, k, i, got.Radius, want.Radius)
		}
		if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
			t.Fatalf("s=%d k=%d query %d: neighbors diverge\n forest: %v\n oracle: %v",
				s, k, i, got.Neighbors, want.Neighbors)
		}
		b := kthSqDist(data, q, k)
		leaf, dir := 0, 0
		for _, ft := range trees {
			l, d := sphereWalk(ft, q, b)
			leaf += l
			dir += d
		}
		if got.LeafAccesses != leaf || got.DirAccesses != dir {
			t.Fatalf("s=%d k=%d query %d: forest read %d leaf / %d dir pages, the sphere meets %d / %d",
				s, k, i, got.LeafAccesses, got.DirAccesses, leaf, dir)
		}
		sl, sd := scatterCounts(trees, q, k)
		if got.LeafAccesses > sl || got.DirAccesses > sd || (s == 1 && (got.LeafAccesses != sl || got.DirAccesses != sd)) {
			t.Fatalf("s=%d k=%d query %d: forest read %d leaf / %d dir pages, a search per shard %d / %d",
				s, k, i, got.LeafAccesses, got.DirAccesses, sl, sd)
		}
	}
}

// forestOracle checks one (data, queries, k, shards) configuration of
// KNNSearchForest.
func forestOracle(t *testing.T, data, queries [][]float64, k, s int) {
	t.Helper()
	checkForest(t, data, singleTree(data), shardTrees(shardSplit(data, s)), queries, k)
}

// mergeOracle checks one configuration of scatter-gather: a search per
// non-empty shard at k' = min(k, shard cardinality), folded through
// KNNMerge, against the single-tree oracle.
func mergeOracle(t *testing.T, data, queries [][]float64, k, s int) {
	t.Helper()
	oracle := singleTree(data)
	trees := shardTrees(shardSplit(data, s))
	for i, q := range queries {
		var parts []Result
		for _, ft := range trees {
			if ft.NumPoints > 0 {
				parts = append(parts, KNNSearchFlat(ft, q, min(k, ft.NumPoints)))
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

type shardedCheck func(t *testing.T, data, queries [][]float64, k, s int)

// sweepRandom is the main property sweep: random data over dims 1..64,
// S in {1,2,4,8}, k values spanning sub-k shards (k larger than every
// shard's cardinality) up to k == N.
func sweepRandom(t *testing.T, check shardedCheck) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{1, 2, 3, 8, 16, 64} {
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
				check(t, data, queries, k, s)
			}
		}
	}
}

// sweepTies engineers exact distance ties — duplicated coordinates on a
// lattice, plus exactly duplicated points spread across different
// shards — where only the canonical (distance, lex) order keeps the
// answer equal to the oracle's.
func sweepTies(t *testing.T, check shardedCheck) {
	var data [][]float64
	// 5x5x1 lattice: many equidistant points from the center query.
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
			check(t, data, queries, k, s)
		}
	}
}

// sweepSubK pins the sub-k edge explicitly: more shards than points, so
// some shards are empty and every shard holds fewer than k points.
func sweepSubK(t *testing.T, check shardedCheck) {
	data := uniformPoints(5, 4, 9)
	queries := [][]float64{data[0], {0.1, 0.2, 0.3, 0.4}}
	for _, s := range []int{4, 8} {
		check(t, data, queries, 5, s)
	}
}

func TestKNNForestMatchesOracle(t *testing.T) { sweepRandom(t, forestOracle) }

func TestKNNForestTieBreaks(t *testing.T) { sweepTies(t, forestOracle) }

func TestKNNForestSubKShards(t *testing.T) { sweepSubK(t, forestOracle) }

// TestKNNForestDynamicShards runs the forest checks over R*-trees grown
// by insertion, as the serving shards are. Their directory rectangles
// may be wider than their children's bound, which the sphere walk's
// ancestor rule has to match.
func TestKNNForestDynamicShards(t *testing.T) {
	data := uniformPoints(3000, 6, 61)
	queries := make([][]float64, 8)
	rng := rand.New(rand.NewSource(62))
	for i := range queries {
		q := append([]float64(nil), data[rng.Intn(len(data))]...)
		for d := range q {
			q[d] += 0.02 * rng.NormFloat64()
		}
		queries[i] = q
	}
	oracle := singleTree(data)
	for _, s := range []int{1, 4, 8} {
		trees := dynamicShards(data, s)
		for _, k := range []int{1, 21, 400} {
			checkForest(t, data, oracle, trees, queries, k)
		}
	}
}

// dynamicShards deals data round-robin into s R*-trees grown by
// insertion at the default page geometry and flattens each, as the
// sharded server builds its snapshots.
func dynamicShards(data [][]float64, s int) []*rtree.FlatTree {
	g := rtree.NewGeometry(len(data[0]))
	dyn := make([]*rtree.DynamicTree, s)
	for i := range dyn {
		dyn[i] = rtree.NewDynamic(g)
	}
	for i, p := range data {
		dyn[i%s].Insert(p)
	}
	out := make([]*rtree.FlatTree, s)
	for i, d := range dyn {
		out[i] = d.Flatten()
	}
	return out
}

// TestKNNForestPanics pins the search's preconditions: k outside [1,
// total points], a non-empty tree of another dimension, and a leaf
// source (which serves one tree) with several trees.
func TestKNNForestPanics(t *testing.T) {
	data := uniformPoints(40, 3, 5)
	trees := shardTrees(shardSplit(data, 2))
	other := singleTree(uniformPoints(10, 4, 6))
	q := data[0]
	for _, c := range []struct {
		name, want string
		run        func()
	}{
		{"k = 0", "outside", func() { KNNSearchForest(trees, q, 0) }},
		{"k above total", "outside", func() { KNNSearchForest(trees, q, 41) }},
		{"empty forest", "outside", func() { KNNSearchForest([]*rtree.FlatTree{{}}, q, 1) }},
		{"other dimension", "dimension", func() { KNNSearchForest(append(trees, other), q, 3) }},
		{"source with two trees", "one tree", func() {
			knnFlat(trees, MatrixSource{M: trees[0].Points}, q, 3, false, &flatScratch{})
		}},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic", c.name)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, c.want) {
					t.Fatalf("%s: panic %q does not mention %q", c.name, msg, c.want)
				}
			}()
			c.run()
		}()
	}
	// Empty trees of any dimension are skipped, not checked.
	if got := KNNSearchForest(append(trees, &rtree.FlatTree{}), q, 40); len(got.Neighbors) != 40 {
		t.Fatalf("forest with an empty tree returned %d neighbors, want 40", len(got.Neighbors))
	}
}

func TestKNNMergeMatchesOracle(t *testing.T) { sweepRandom(t, mergeOracle) }

func TestKNNMergeTieBreaks(t *testing.T) { sweepTies(t, mergeOracle) }

func TestKNNMergeSubKShards(t *testing.T) { sweepSubK(t, mergeOracle) }

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

// forestSink keeps BenchmarkKNNForest's searches from being optimized
// away.
var forestSink Result

// BenchmarkKNNForest times one served k-NN at the serving benchmark's
// knn-read geometry: TEXTURE60 × 0.02 (5,509 points, d = 60) dealt
// round-robin into S R*-trees grown by insertion, as the sharded
// server grows its shards, and 400 queries jittered around data points
// with σ = 0.02 (the first 400 of the benchmark's seed-1 query pool),
// k = 21. One op is one KNNSearchForest over the S trees. It reports
// the mean pages per query the forest reads (leaf/q, dir/q) beside
// scatter_leaf/q, the leaf pages a search per shard reads;
// scripts/bench.sh records them in BENCH_knn.json's forest block.
func BenchmarkKNNForest(b *testing.B) {
	const k = 21
	data := dataset.Texture60.Scaled(0.02).Generate(rand.New(rand.NewSource(1))).Points
	rng := rand.New(rand.NewSource(1*7919 + 1))
	queries := make([][]float64, 400)
	for i := range queries {
		q := append([]float64(nil), data[rng.Intn(len(data))]...)
		for d := range q {
			q[d] += 0.02 * rng.NormFloat64()
		}
		queries[i] = q
	}
	for _, s := range []int{1, 2, 4, 8} {
		var trees []*rtree.FlatTree
		b.Run(fmt.Sprintf("s%d", s), func(b *testing.B) {
			if trees == nil {
				trees = dynamicShards(data, s)
			}
			var leaf, dir, scatter int
			for _, q := range queries {
				r := KNNSearchForest(trees, q, k)
				leaf += r.LeafAccesses
				dir += r.DirAccesses
				l, _ := scatterCounts(trees, q, k)
				scatter += l
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				forestSink = KNNSearchForest(trees, queries[i%len(queries)], k)
			}
			b.StopTimer()
			n := float64(len(queries))
			b.ReportMetric(float64(leaf)/n, "leaf/q")
			b.ReportMetric(float64(dir)/n, "dir/q")
			b.ReportMetric(float64(scatter)/n, "scatter_leaf/q")
		})
	}
}
