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
	"errors"
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
	// Seed drives all randomness. Every value, 0 included, is used as
	// given.
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
	return o
}

// workload is a generated dataset with its density-biased k-NN query
// workload (Section 4.2): the query positions and points drawn from
// the data, their k-NN spheres, and k clamped to the cardinality.
// Every driver that draws queries draws them here. A workload is
// immutable once built, so concurrent sweep tasks share it read-only.
type workload struct {
	spec        dataset.Spec // scaled by Options.Scale
	data        [][]float64
	k           int
	indices     []int
	queryPoints [][]float64
	spheres     []query.Sphere
}

// newWorkload generates spec at opt's scale and draws opt.Queries
// queries from it, both from one generator seeded with opt.Seed. The
// caller fills opt's defaults.
func newWorkload(spec dataset.Spec, opt Options) workload {
	if opt.Scale != 1 {
		spec = spec.Scaled(opt.Scale)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	data := spec.Generate(rng).Points
	k := min(opt.K, len(data))
	indices, queryPoints := query.DensityBiased(data, opt.Queries, rng)
	return workload{
		spec:        spec,
		data:        data,
		k:           k,
		indices:     indices,
		queryPoints: queryPoints,
		spheres:     query.ComputeSpheres(data, queryPoints, k),
	}
}

// stage stores the dataset on a fresh simulated disk of g's page size
// for one restricted-memory prediction and returns it with the
// predictor's Config: memory m, the upper tree height hUpper (0
// chooses it) and a generator seeded with seed. Disks and rand.Rand
// are stateful, so concurrent tasks each stage their own and take a
// distinct seed. When the obs default registry is enabled
// (cmd/experiments -trace), the config carries a fresh trace named
// after the dataset, so every prediction's phases land in the
// registry.
func (w *workload) stage(g rtree.Geometry, m, hUpper int, seed int64) (*disk.PointFile, core.Config) {
	pf := disk.Stage(w.data, g.PageBytes)
	return pf, core.Config{
		Geometry:     g,
		M:            m,
		K:            w.k,
		QueryIndices: w.indices,
		HUpper:       hUpper,
		Rng:          rand.New(rand.NewSource(seed)),
		Trace:        obs.TraceIfEnabled("predict."+w.spec.Name, pf.File().Disk()),
	}
}

// predictMean predicts the mean leaf accesses per query of the index
// over the workload's dataset under geometry g with memory m, and
// names the model that did: the basic model of Section 3, sampling
// with basicSeed, where the memory holds the whole dataset or
// core.ErrFlatTree reports no upper/lower split; the resampled model
// of Section 4.4, sampling with seed, otherwise.
func (w *workload) predictMean(g rtree.Geometry, m int, seed, basicSeed int64) (float64, string, error) {
	pf, cfg := w.stage(g, m, 0, seed)
	if m < len(w.data) {
		p, err := core.PredictResampled(pf, cfg)
		if !errors.Is(err, core.ErrFlatTree) {
			return p.Mean, "resampled", err
		}
	}
	p, err := core.PredictBasic(w.data, basicZeta(m, len(w.data), g), true, g, w.spheres,
		rand.New(rand.NewSource(basicSeed)), cfg.Trace)
	return p.Mean, "basic", err
}

// environment is a workload with the page geometry of the paper's
// index and its measured ground truth: the full index bulk-loaded in
// memory and each query's leaf accesses on it. It is immutable after
// construction, which is what lets sharedEnvironment cache
// environments across drivers.
type environment struct {
	workload
	opt      Options
	g        rtree.Geometry
	measured []float64 // per-query leaf accesses of the full index
	tree     *rtree.Tree
}

// newEnvironment generates the workload and measures the ground-truth
// per-query leaf accesses on an in-memory build of the full index.
func newEnvironment(spec dataset.Spec, opt Options) *environment {
	opt = opt.withDefaults()
	w := newWorkload(spec, opt)
	g := rtree.NewGeometry(len(w.data[0]))
	tree := rtree.Build(w.data, rtree.ParamsForGeometry(g))
	return &environment{
		workload: w,
		opt:      opt,
		g:        g,
		measured: query.MeasureLeafAccesses(tree, w.spheres),
		tree:     tree,
	}
}

// task stages one prediction task of a sweep on the environment's
// geometry and memory. Its generator is seeded from the root seed plus
// the task's fixed offset, distinct for every concurrent task.
func (e *environment) task(hUpper int, seedOffset int64) (*disk.PointFile, core.Config) {
	return e.stage(e.g, e.opt.M, hUpper, e.opt.Seed+1000+seedOffset)
}

// measureOnDiskIO builds the on-disk index on a fresh disk and charges
// the sample queries as random page accesses (one seek and one
// transfer per leaf or directory page read), returning the build and
// query counters separately — the "building cost + query cost" split
// of Table 3.
func (e *environment) measureOnDiskIO() (build, queries disk.Counters) {
	pf := disk.Stage(e.data, e.g.PageBytes)
	d := pf.File().Disk()
	tree := rtree.BuildOnDisk(pf, rtree.ParamsForGeometry(e.g), e.opt.M,
		obs.TraceIfEnabled("ondisk."+e.spec.Name, d))
	build = d.Counters()
	for _, r := range query.MeasureKNNFlat(tree.Flatten(), e.queryPoints, e.k) {
		pages := int64(r.LeafAccesses + r.DirAccesses)
		queries.Seeks += pages
		queries.Transfers += pages
	}
	return build, queries
}

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
