package query

import "math"

// KNNMerge folds per-shard k-NN results into the global top-k for a
// sharded search. Each part must be the result of a k'-NN search over
// one shard with k' = min(k, shard cardinality) — under the canonical
// (distance, lexicographic point) total order every member of the
// global top-k is, within its own shard, among that shard's k nearest,
// so the union of the parts' neighbor lists contains the global answer
// and merging is a pure re-selection.
//
// The merge replays every candidate row through the same bounded
// top-k heaps the flat leaf scan uses — sqDistBounded against the
// current k-th bound, then the (distance, lex) neighbor heap — so the
// merged radius, neighbor list, and tie-breaks are bit-identical to a
// single-tree search over the union of the shards' points: selection
// under a total order is independent of both candidate arrival order
// and shard assignment. Access counters are summed across parts (the
// true cost of the scatter).
//
// Aliasing contract: like KNNSearchFlat, the returned Neighbors alias
// the parts' rows (views into the shard trees). Callers that retain
// them past the shards' lifetime must copy.
//
// The caller is responsible for k being at most the total cardinality;
// with fewer than k candidates the result simply holds them all, with
// Radius the distance of the farthest.
//
// It has no production caller: the sharded server answers with one
// search over all shards (KNNSearchForest), and KNNMerge stays only
// for the benchmark's layer replay (bench/trace.go), which still
// scatters and merges.
func KNNMerge(q []float64, k int, parts []Result) Result {
	if k <= 0 {
		panic("query: KNNMerge k <= 0")
	}
	sc := flatPool.Get().(*flatScratch)
	defer flatPool.Put(sc)
	sc.best.Reset(k)
	sc.nbrs.reset(k)
	res := Result{}
	offered := 0
	var farthest float64
	for _, p := range parts {
		res.LeafAccesses += p.LeafAccesses
		res.DirAccesses += p.DirAccesses
		for _, row := range p.Neighbors {
			d, ok := sqDistBounded(row, q, sc.best.Max())
			if !ok {
				continue
			}
			sc.best.Offer(d)
			sc.nbrs.offer(d, row)
			offered++
			if d > farthest {
				farthest = d
			}
		}
	}
	if offered < k {
		res.Radius = math.Sqrt(farthest)
	} else {
		res.Radius = math.Sqrt(sc.best.Max())
	}
	res.Neighbors = sc.nbrs.extract()
	return res
}
