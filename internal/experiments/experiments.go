// Package experiments reproduces every table and figure of the
// evaluation in Lang & Singh (SIGMOD 2001). Each driver returns a
// structured result with a String method that renders the same rows or
// series the paper reports; cmd/experiments prints them and
// bench_test.go at the repository root wraps each driver in a
// testing.B benchmark.
//
// The paper's real datasets are replaced by the synthetic stand-ins of
// package dataset (same cardinality and dimensionality; see DESIGN.md
// for the substitution argument). Options.Scale shrinks the
// cardinalities for quick runs; the paper-shape assertions in this
// package's tests run at small scales, the benchmarks at larger ones.
package experiments

import (
	"math/rand"

	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/disk"
	"hdidx/internal/obs"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
)

// Options parameterizes an experiment run.
type Options struct {
	// Scale multiplies the paper dataset cardinalities (default 1.0).
	Scale float64
	// Queries is the number of sample queries (paper: 500).
	Queries int
	// K is the k of k-NN (paper: 21).
	K int
	// M is the memory size in points (paper: 10,000 and 1,000). When
	// zero it defaults to 10,000 scaled by Scale (at least 200), so
	// that scaled-down runs keep the paper's memory-to-data ratio.
	M int
	// Seed drives all randomness.
	Seed int64
	// Shards is the serving experiment's shard count (default 1): the
	// server republishes only the dirty shard when it fills, and a
	// k-NN query is one best-first search over every shard, with
	// answers bit-identical to one tree's. Other experiments ignore it.
	Shards int
	// FlattenEvery overrides the serving experiment's per-shard
	// publication threshold (default 128 inserts).
	FlattenEvery int
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Queries == 0 {
		o.Queries = 500
	}
	if o.K == 0 {
		o.K = 21
	}
	if o.M == 0 {
		o.M = int(10000*o.Scale + 0.5)
		if o.M < 200 {
			o.M = 200
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// environment bundles a generated dataset with a density-biased query
// workload and the measured ground-truth index. It is immutable after
// construction — concurrent sweep tasks share it read-only and stage
// their own simulated disks with taskFile — which is also what lets
// sharedEnvironment cache environments across drivers.
type environment struct {
	opt         Options
	spec        dataset.Spec
	data        [][]float64
	g           rtree.Geometry
	indices     []int
	queryPoints [][]float64
	spheres     []query.Sphere
	measured    []float64 // per-query leaf accesses of the full index
	tree        *rtree.Tree
}

// newEnvironment generates the dataset, draws the density-biased query
// workload, and measures the ground-truth per-query leaf accesses on
// an in-memory build of the full index.
func newEnvironment(spec dataset.Spec, opt Options) *environment {
	opt = opt.withDefaults()
	scaled := spec
	if opt.Scale != 1 {
		scaled = spec.Scaled(opt.Scale)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	data := scaled.Generate(rng).Points
	g := rtree.NewGeometry(len(data[0]))

	k := opt.K
	if k > len(data) {
		k = len(data)
	}
	indices := make([]int, opt.Queries)
	queryPoints := make([][]float64, opt.Queries)
	for i := range indices {
		indices[i] = rng.Intn(len(data))
		queryPoints[i] = data[indices[i]]
	}
	spheres := query.ComputeSpheres(data, queryPoints, k)

	// Ground truth: the full index. Build on a copy so the point
	// reordering of the bulk loader does not disturb index-based
	// lookups into data.
	cp := make([][]float64, len(data))
	copy(cp, data)
	tree := rtree.Build(cp, rtree.ParamsForGeometry(g))
	measured := query.MeasureLeafAccesses(tree, spheres)

	return &environment{
		opt:         opt,
		spec:        scaled,
		data:        data,
		g:           g,
		indices:     indices,
		queryPoints: queryPoints,
		spheres:     spheres,
		measured:    measured,
		tree:        tree,
	}
}

// taskFile stages the environment's dataset on a fresh simulated disk
// for one prediction task, with counters at zero. Disks are stateful
// (head position, counters), so concurrent tasks each stage their own
// from the shared in-memory dataset instead of sharing one disk or
// re-generating the points.
func (e *environment) taskFile() (*disk.Disk, *disk.PointFile) {
	d := disk.New(diskParams())
	pf := disk.NewPointFile(d, len(e.data[0]), len(e.data))
	pf.AppendAll(e.data)
	d.ResetCounters()
	return d, pf
}

// config builds a predictor Config over this environment, reading from
// the disk d the caller staged (taskFile). When the obs default
// registry is enabled (cmd/experiments -trace), each config carries a
// fresh trace named after the dataset so the per-phase breakdown of
// every predictor run lands in the registry. The predictor's RNG is
// private to the config, derived from (seed, seedOffset) — callers
// give every concurrent task a distinct offset.
func (e *environment) config(hUpper int, seedOffset int64, d *disk.Disk) core.Config {
	k := e.opt.K
	if k > len(e.data) {
		k = len(e.data)
	}
	return core.Config{
		Geometry:     e.g,
		M:            e.opt.M,
		K:            k,
		QueryIndices: e.indices,
		HUpper:       hUpper,
		Rng:          rand.New(rand.NewSource(e.opt.Seed + 1000 + seedOffset)),
		Trace:        obs.TraceIfEnabled("predict."+e.spec.Name, d),
	}
}

// measureOnDiskIO builds the on-disk index on a fresh disk and charges
// the 500 sample queries as random page accesses (one seek and one
// transfer per leaf or directory page read), returning the build and
// query counters separately — the "building cost + query cost" split
// of Table 3.
func (e *environment) measureOnDiskIO() (build, queries disk.Counters) {
	d2, pf2 := e.taskFile()
	tree := rtree.BuildOnDisk(pf2, rtree.ParamsForGeometry(e.g), e.opt.M,
		obs.TraceIfEnabled("ondisk."+e.spec.Name, d2))
	build = d2.Counters()

	k := e.opt.K
	if k > len(e.data) {
		k = len(e.data)
	}
	for _, r := range query.MeasureKNNFlat(tree.Flatten(), e.queryPoints, k) {
		pages := int64(r.LeafAccesses + r.DirAccesses)
		queries.Seeks += pages
		queries.Transfers += pages
	}
	return build, queries
}

// diskParams returns the disk parameters experiments price with.
func diskParams() disk.Params { return disk.DefaultParams() }

// basicZeta picks the sample fraction for PredictBasic fallbacks: the
// memory fraction, floored at 15% (below which Figure 2 shows the
// basic model degrades) and at the 1/C limit of Theorem 1.
func basicZeta(m, n int, g rtree.Geometry) float64 {
	zeta := float64(m) / float64(n)
	if zeta < 0.15 {
		zeta = 0.15
	}
	if min := 1.0 / float64(g.EffDataCapacity()); zeta < min {
		zeta = min
	}
	if zeta > 1 {
		zeta = 1
	}
	return zeta
}

// capitalize upper-cases the first ASCII letter of s.
func capitalize(s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	if b[0] >= 'a' && b[0] <= 'z' {
		b[0] -= 'a' - 'A'
	}
	return string(b)
}
