// Package hdidx is a library for predicting the query performance of
// high-dimensional index structures using sampling, reproducing
// Lang & Singh, "Modeling High-Dimensional Index Structures using
// Sampling" (SIGMOD 2001).
//
// The package offers two things:
//
//   - Index: a bulk-loaded VAMSplit R*-tree over high-dimensional
//     points with exact k-NN and range search — the index structure
//     whose performance is being predicted.
//   - Predictor: sampling-based estimators of the number of index
//     leaf-page accesses a k-NN workload will incur, without building
//     the full index. The resampled method typically lands within a
//     few percent of the measured value at one to two orders of
//     magnitude less I/O than building and probing the index
//     (simulated disk; see the internal packages for the cost model).
//
// Use Build for querying, NewPredictor for tuning decisions such as
// page sizes or how many dimensions to index (see examples/).
package hdidx

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"hdidx/internal/core"
	"hdidx/internal/disk"
	"hdidx/internal/obs"
	"hdidx/internal/pager"
	"hdidx/internal/par"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
	"hdidx/internal/stats"
	"hdidx/internal/vec"
)

// Workers returns the effective worker-pool width of the process, and
// SetWorkers overrides it (n <= 0 restores the GOMAXPROCS default),
// returning the previous override. They expose the shared pool behind
// the parallel bulk loader and the predictors' CPU-bound stages; the
// CLIs' -workers flags call SetWorkers at startup. Worker counts never
// change results, only wall-clock time.
func Workers() int         { return par.Workers() }
func SetWorkers(n int) int { return par.SetWorkers(n) }

// ErrFlatTree reports that the modeled index is too flat for the
// restricted-memory methods (MethodCutoff, MethodResampled): no
// upper/lower split exists for the page geometry and memory size.
// MethodBasic covers these configurations. Test with errors.Is.
var ErrFlatTree = core.ErrFlatTree

// Option configures Build and NewPredictor.
type Option func(*config)

type config struct {
	pageBytes   int
	utilization float64
}

func newConfig(opts []Option) (config, error) {
	c := config{pageBytes: 8192, utilization: rtree.DefaultUtilization}
	for _, o := range opts {
		o(&c)
	}
	if c.pageBytes <= 0 {
		return config{}, fmt.Errorf("hdidx: page size must be positive, got %d bytes", c.pageBytes)
	}
	if c.utilization <= 0 || c.utilization > 1 {
		return config{}, fmt.Errorf("hdidx: utilization %g outside (0, 1]", c.utilization)
	}
	return c, nil
}

// validatePoints checks the dataset at the API boundary: it must be
// non-empty and rectangular (every point of the same positive
// dimension), with finite coordinates. Returning an error here
// replaces panics that used to surface deep inside the disk and rtree
// layers.
func validatePoints(points [][]float64) (dim int, err error) {
	if len(points) == 0 {
		return 0, fmt.Errorf("hdidx: no points")
	}
	dim = len(points[0])
	if dim == 0 {
		return 0, fmt.Errorf("hdidx: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return 0, fmt.Errorf("hdidx: ragged input: point %d has dimension %d, point 0 has %d", i, len(p), dim)
		}
		if !vec.Finite(p) {
			return 0, fmt.Errorf("hdidx: point %d has a non-finite coordinate", i)
		}
	}
	return dim, nil
}

// WithPageBytes sets the index page size in bytes (default 8192).
// Non-positive values are rejected by Build and NewPredictor.
func WithPageBytes(b int) Option {
	return func(c *config) { c.pageBytes = b }
}

// WithUtilization sets the effective page utilization in (0, 1]
// achieved by the bulk loader (default 0.95). Values outside (0, 1]
// are rejected by Build and NewPredictor.
func WithUtilization(u float64) Option {
	return func(c *config) { c.utilization = u }
}

func (c config) geometry(dim int) rtree.Geometry {
	return rtree.Geometry{Dim: dim, PageBytes: c.pageBytes, Utilization: c.utilization}
}

// Index is a bulk-loaded VAMSplit R*-tree. Queries run over a
// linearized snapshot of the tree (rtree.FlatTree) built once at Build
// time; the pointer tree is retained for prediction and introspection.
// An Index from OpenWith with the mmap backend serves its snapshot
// zero-copy from a read-only file mapping (snap non-nil); Close
// releases the mapping.
type Index struct {
	tree *rtree.Tree
	flat *rtree.FlatTree
	g    rtree.Geometry
	snap *pager.Snapshot // non-nil iff flat is mmap-backed
}

// Build bulk-loads an index over points. The input slice is not
// modified; point contents are shared, not copied.
func Build(points [][]float64, opts ...Option) (*Index, error) {
	dim, err := validatePoints(points)
	if err != nil {
		return nil, err
	}
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	g := c.geometry(dim)
	cp := make([][]float64, len(points))
	copy(cp, points)
	sp := obs.TraceIfEnabled("hdidx.build", nil).Span("rtree.build")
	tree := rtree.Build(cp, rtree.ParamsForGeometry(g))
	sp.End()
	flat := tree.Flatten()
	return &Index{tree: tree, flat: flat, g: g}, nil
}

// QueryStats reports the page accesses of one search.
type QueryStats struct {
	// LeafAccesses is the number of data pages read.
	LeafAccesses int
	// DirAccesses is the number of directory pages read.
	DirAccesses int
	// Radius is the distance to the k-th neighbor found.
	Radius float64
}

// KNN returns the k nearest neighbors of q, closest first, with the
// page-access statistics of the (optimal best-first) search. The
// returned neighbors are private copies: mutating them never corrupts
// the index, and they stay valid however long they are retained. A
// query with a non-finite coordinate is an error.
func (ix *Index) KNN(q []float64, k int) ([][]float64, QueryStats, error) {
	// Validate against the flat snapshot being searched, not the
	// pointer tree: the snapshot is the authority on what this search
	// can actually serve.
	if k < 1 || k > ix.flat.NumPoints {
		return nil, QueryStats{}, fmt.Errorf("hdidx: k=%d outside [1, %d]", k, ix.flat.NumPoints)
	}
	if len(q) != ix.flat.Dim {
		return nil, QueryStats{}, fmt.Errorf("hdidx: query dimension %d, index dimension %d", len(q), ix.flat.Dim)
	}
	if !vec.Finite(q) {
		return nil, QueryStats{}, fmt.Errorf("hdidx: query has a non-finite coordinate")
	}
	res := query.KNNSearchFlat(ix.flat, q, k)
	return copyNeighbors(res.Neighbors, ix.flat.Dim), QueryStats{
		LeafAccesses: res.LeafAccesses,
		DirAccesses:  res.DirAccesses,
		Radius:       res.Radius,
	}, nil
}

// copyNeighbors materializes defensive copies of neighbor rows, which
// otherwise alias the flat tree's packed point matrix (see the
// query.KNNSearchFlat aliasing contract). One backing array serves all
// rows.
func copyNeighbors(nbrs [][]float64, dim int) [][]float64 {
	if len(nbrs) == 0 {
		return nbrs
	}
	backing := make([]float64, len(nbrs)*dim)
	out := make([][]float64, len(nbrs))
	for i, n := range nbrs {
		row := backing[i*dim : (i+1)*dim : (i+1)*dim]
		copy(row, n)
		out[i] = row
	}
	return out
}

// RangeCount returns the number of indexed points within radius of
// center, with page-access statistics. A non-finite center or a NaN
// radius is an error.
func (ix *Index) RangeCount(center []float64, radius float64) (int, QueryStats, error) {
	if len(center) != ix.flat.Dim {
		return 0, QueryStats{}, fmt.Errorf("hdidx: query dimension %d, index dimension %d", len(center), ix.flat.Dim)
	}
	if !vec.Finite(center) {
		return 0, QueryStats{}, fmt.Errorf("hdidx: query has a non-finite coordinate")
	}
	if radius < 0 || math.IsNaN(radius) {
		return 0, QueryStats{}, fmt.Errorf("hdidx: radius %v is negative or NaN", radius)
	}
	n, res := query.RangeSearchFlat(ix.flat, query.Sphere{Center: center, Radius: radius})
	return n, QueryStats{LeafAccesses: res.LeafAccesses, DirAccesses: res.DirAccesses, Radius: radius}, nil
}

// Len returns the number of indexed points. (Shape accessors read the
// flat snapshot, which every Index has — including one from Open,
// which carries no pointer tree.)
func (ix *Index) Len() int { return ix.flat.NumPoints }

// Dim returns the dimensionality of the indexed points.
func (ix *Index) Dim() int { return ix.flat.Dim }

// Height returns the height of the tree (leaves are at height 1).
func (ix *Index) Height() int { return ix.flat.Height }

// NumLeaves returns the number of data pages.
func (ix *Index) NumLeaves() int { return ix.flat.NumLeaves }

// Method selects a prediction algorithm.
type Method string

const (
	// MethodResampled is the resampled index tree (Section 4.4):
	// most accurate, costs roughly two dataset scans.
	MethodResampled Method = "resampled"
	// MethodCutoff is the cutoff index tree (Section 4.3): cheapest
	// (one scan), accurate on average but weakly correlated per query.
	MethodCutoff Method = "cutoff"
	// MethodBasic is the unlimited-memory model (Section 3): builds a
	// mini-index on an in-memory sample.
	MethodBasic Method = "basic"
)

// Predictor estimates index page accesses from a data sample without
// building the full index.
type Predictor struct {
	points [][]float64
	g      rtree.Geometry
}

// NewPredictor prepares a predictor over points, which are the dataset
// the hypothetical index would be built on.
func NewPredictor(points [][]float64, opts ...Option) (*Predictor, error) {
	dim, err := validatePoints(points)
	if err != nil {
		return nil, err
	}
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	return &Predictor{points: points, g: c.geometry(dim)}, nil
}

// DefaultSeed is the seed selected when EstimateOptions.Seed is
// negative — the historical default of this package.
const DefaultSeed int64 = 1

// EstimateOptions parameterizes an estimate.
//
// Determinism contract: the same dataset, method, and options
// (including Seed) produce an identical Estimate — same PerQuery
// values, same I/O counters — on every run; only the wall-clock
// durations in Phases vary. Distinct seeds draw distinct query
// workloads and samples.
type EstimateOptions struct {
	// K is the k of the k-NN workload (default 21, the paper's).
	K int
	// Queries is the number of density-biased sample queries
	// (default 500).
	Queries int
	// Memory is the number of points that fit in memory for the
	// restricted-memory methods (default 10,000).
	Memory int
	// SampleFraction is the sample size for MethodBasic (default the
	// memory fraction, floored at the 1/C limit).
	SampleFraction float64
	// Seed drives sampling and query selection. Every seed >= 0 is
	// used verbatim — the zero value runs with seed 0 — and negative
	// values select DefaultSeed.
	Seed int64
	// Workers caps the worker pool the estimate's CPU-bound stages
	// (parallel bulk loads, sphere scans, point classification) fan
	// out on. 0 (the default) uses GOMAXPROCS. The width is scoped to
	// the call: concurrent estimates with different Workers values run
	// independently and never disturb the process-wide setting.
	// Results are identical for every worker count — parallelism
	// changes wall-clock time, never values.
	Workers int
}

func (o EstimateOptions) withDefaults() (EstimateOptions, error) {
	if o.K < 0 {
		return o, fmt.Errorf("hdidx: negative k %d", o.K)
	}
	if o.Queries < 0 {
		return o, fmt.Errorf("hdidx: negative query count %d", o.Queries)
	}
	if o.Memory < 0 {
		return o, fmt.Errorf("hdidx: negative memory size %d", o.Memory)
	}
	if o.SampleFraction < 0 || o.SampleFraction > 1 {
		return o, fmt.Errorf("hdidx: sample fraction %g outside [0, 1]", o.SampleFraction)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("hdidx: negative worker count %d", o.Workers)
	}
	if o.K == 0 {
		o.K = 21
	}
	if o.Queries == 0 {
		o.Queries = 500
	}
	if o.Memory == 0 {
		o.Memory = 10000
	}
	if o.Seed < 0 {
		o.Seed = DefaultSeed
	}
	return o, nil
}

// Phase is one stage of the prediction pipeline with its observed
// cost: wall-clock time plus the simulated-disk activity attributed to
// it. The phases of one Estimate do not overlap and cover every disk
// access of the prediction, so their IOSeconds sum to
// PredictionIOSeconds.
type Phase struct {
	// Name identifies the stage (e.g. "sample.scan", "upper.build";
	// see the -trace output of cmd/idxpredict for the full set).
	Name string
	// Count is the number of spans folded into the phase (chunked
	// stages record one span per chunk).
	Count int
	// Wall is the wall-clock time spent in the phase.
	Wall time.Duration
	// Seeks and Transfers are the simulated-disk activity of the
	// phase.
	Seeks     int64
	Transfers int64
	// IOSeconds prices the phase's disk activity under the same disk
	// parameters as PredictionIOSeconds.
	IOSeconds float64
}

// Estimate is the outcome of a prediction.
type Estimate struct {
	// Method that produced the estimate.
	Method Method
	// MeanAccesses is the predicted average number of leaf-page
	// accesses per query.
	MeanAccesses float64
	// PerQuery holds the per-query predictions.
	PerQuery []float64
	// PredictionIOSeconds prices the I/O the prediction itself needed
	// on the simulated disk (zero for MethodBasic).
	PredictionIOSeconds float64
	// Phases is the per-stage breakdown of the prediction's cost:
	// where the wall-clock time went and which stages paid the I/O.
	// The IOSeconds of the phases sum to PredictionIOSeconds.
	Phases []Phase
	// HUpper, SigmaUpper, SigmaLower document the restricted-memory
	// parameters used.
	HUpper     int
	SigmaUpper float64
	SigmaLower float64
}

// PhaseReport renders the per-phase cost breakdown as an aligned text
// table (the same layout the -trace CLI flags print).
func (e Estimate) PhaseReport() string {
	var b []byte
	b = append(b, fmt.Sprintf("%-16s %6s %12s %8s %10s %9s\n",
		"phase", "calls", "wall", "seeks", "transfers", "io(s)")...)
	for _, ph := range e.Phases {
		b = append(b, fmt.Sprintf("%-16s %6d %12s %8d %10d %9.3f\n",
			ph.Name, ph.Count, ph.Wall.Round(time.Microsecond), ph.Seeks, ph.Transfers, ph.IOSeconds)...)
	}
	b = append(b, fmt.Sprintf("%-16s %6s %12s %8s %10s %9.3f\n",
		"total", "", "", "", "", e.PredictionIOSeconds)...)
	return string(b)
}

// EstimateKNN predicts the average number of leaf pages a density-
// biased k-NN workload accesses on the index this predictor models.
func (p *Predictor) EstimateKNN(method Method, opts EstimateOptions) (Estimate, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return Estimate{}, err
	}
	pool := par.PoolOf(o.Workers)
	rng := rand.New(rand.NewSource(o.Seed))
	k := o.K
	if k > len(p.points) {
		k = len(p.points)
	}

	if method == MethodBasic {
		zeta := o.SampleFraction
		if zeta == 0 {
			zeta = float64(o.Memory) / float64(len(p.points))
			if min := 1.0 / float64(p.g.EffDataCapacity()); zeta < min {
				zeta = min
			}
			if zeta > 1 {
				zeta = 1
			}
		}
		tr := newEstimateTrace(MethodBasic, nil)
		queryPoints := make([][]float64, o.Queries)
		for i := range queryPoints {
			queryPoints[i] = p.points[rng.Intn(len(p.points))]
		}
		sp := tr.Span("workload.spheres")
		spheres := query.ComputeSpheresPool(p.points, queryPoints, k, pool)
		sp.End()
		pr, err := core.PredictBasic(p.points, zeta, true, p.g, spheres, rng, pool, tr)
		if err != nil {
			return Estimate{}, err
		}
		return estimateOf(MethodBasic, pr), nil
	}

	// Restricted-memory methods run against the dataset staged on a
	// fresh simulated disk, so the reported I/O cost is measured.
	d, pf := stageDataset(p.points, p.g)
	indices := make([]int, o.Queries)
	for i := range indices {
		indices[i] = rng.Intn(len(p.points))
	}
	cfg := core.Config{
		Geometry:     p.g,
		M:            o.Memory,
		K:            k,
		QueryIndices: indices,
		Rng:          rng,
		Workers:      o.Workers,
		Trace:        newEstimateTrace(method, d),
	}
	var pr core.Prediction
	switch method {
	case MethodResampled:
		pr, err = core.PredictResampled(pf, cfg)
	case MethodCutoff:
		pr, err = core.PredictCutoff(pf, cfg)
	default:
		return Estimate{}, fmt.Errorf("hdidx: unknown method %q", method)
	}
	if err != nil {
		return Estimate{}, err
	}
	return estimateOf(method, pr), nil
}

// stageDataset stores the dataset on a fresh simulated disk for the
// restricted-memory methods. The counters are reset after staging, so
// the prediction's reported I/O is measured from zero.
func stageDataset(points [][]float64, g rtree.Geometry) (*disk.Disk, *disk.PointFile) {
	d := disk.New(disk.DefaultParams().WithPageBytes(g.PageBytes))
	pf := disk.NewPointFile(d, len(points[0]), len(points))
	pf.AppendAll(points)
	d.ResetCounters()
	return d, pf
}

// newEstimateTrace builds the always-on trace behind Estimate.Phases
// and registers it with the default observability registry when that
// is collecting (the CLIs' -trace flag).
func newEstimateTrace(m Method, d *disk.Disk) *obs.Trace {
	tr := obs.New("hdidx."+string(m), d)
	if obs.Default.Enabled() {
		obs.Default.Add(tr)
	}
	return tr
}

func estimateOf(m Method, pr core.Prediction) Estimate {
	phases := make([]Phase, len(pr.Phases))
	for i, ph := range pr.Phases {
		phases[i] = Phase{
			Name:      ph.Name,
			Count:     ph.Count,
			Wall:      ph.Wall,
			Seeks:     ph.IO.Seeks,
			Transfers: ph.IO.Transfers,
			IOSeconds: ph.IOSeconds,
		}
	}
	return Estimate{
		Method:              m,
		MeanAccesses:        pr.Mean,
		PerQuery:            pr.PerQuery,
		PredictionIOSeconds: pr.IOSeconds,
		Phases:              phases,
		HUpper:              pr.HUpper,
		SigmaUpper:          pr.SigmaUpper,
		SigmaLower:          pr.SigmaLower,
	}
}

// EstimateRange predicts the average number of leaf pages a density-
// biased range workload (balls of the given radius around dataset
// points) accesses on the index this predictor models. K in opts is
// ignored.
func (p *Predictor) EstimateRange(method Method, radius float64, opts EstimateOptions) (Estimate, error) {
	if radius <= 0 {
		return Estimate{}, fmt.Errorf("hdidx: range radius must be positive")
	}
	o, err := opts.withDefaults()
	if err != nil {
		return Estimate{}, err
	}
	pool := par.PoolOf(o.Workers)
	rng := rand.New(rand.NewSource(o.Seed))

	if method == MethodBasic {
		zeta := o.SampleFraction
		if zeta == 0 {
			zeta = float64(o.Memory) / float64(len(p.points))
			if min := 1.0 / float64(p.g.EffDataCapacity()); zeta < min {
				zeta = min
			}
			if zeta > 1 {
				zeta = 1
			}
		}
		spheres := make([]query.Sphere, o.Queries)
		for i := range spheres {
			spheres[i] = query.Sphere{Center: p.points[rng.Intn(len(p.points))], Radius: radius}
		}
		pr, err := core.PredictBasic(p.points, zeta, true, p.g, spheres, rng, pool, newEstimateTrace(MethodBasic, nil))
		if err != nil {
			return Estimate{}, err
		}
		return estimateOf(MethodBasic, pr), nil
	}

	d, pf := stageDataset(p.points, p.g)
	indices := make([]int, o.Queries)
	for i := range indices {
		indices[i] = rng.Intn(len(p.points))
	}
	cfg := core.Config{
		Geometry:     p.g,
		M:            o.Memory,
		FixedRadius:  radius,
		QueryIndices: indices,
		Rng:          rng,
		Workers:      o.Workers,
		Trace:        newEstimateTrace(method, d),
	}
	var pr core.Prediction
	switch method {
	case MethodResampled:
		pr, err = core.PredictResampled(pf, cfg)
	case MethodCutoff:
		pr, err = core.PredictCutoff(pf, cfg)
	default:
		return Estimate{}, fmt.Errorf("hdidx: unknown method %q", method)
	}
	if err != nil {
		return Estimate{}, err
	}
	return estimateOf(method, pr), nil
}

// MeasureRangeAccesses builds the full index in memory and measures
// the average leaf accesses of the range workload EstimateRange
// predicts.
func (p *Predictor) MeasureRangeAccesses(radius float64, opts EstimateOptions) (float64, error) {
	if radius <= 0 {
		return 0, fmt.Errorf("hdidx: range radius must be positive")
	}
	o, err := opts.withDefaults()
	if err != nil {
		return 0, err
	}
	pool := par.PoolOf(o.Workers)
	rng := rand.New(rand.NewSource(o.Seed))
	spheres := make([]query.Sphere, o.Queries)
	for i := range spheres {
		spheres[i] = query.Sphere{Center: p.points[rng.Intn(len(p.points))], Radius: radius}
	}
	tr := obs.TraceIfEnabled("hdidx.measure.range", nil)
	cp := make([][]float64, len(p.points))
	copy(cp, p.points)
	params := rtree.ParamsForGeometry(p.g)
	params.Workers = o.Workers
	sp := tr.Span("rtree.build")
	tree := rtree.Build(cp, params)
	sp.End()
	sp = tr.Span("measure.leaves")
	defer sp.End()
	return stats.Mean(query.MeasureLeafAccessesSetPool(tree.LeafRectSet(), spheres, pool)), nil
}

// PageSizeChoice is one candidate of a page-size tuning sweep.
type PageSizeChoice struct {
	// PageBytes is the candidate page size.
	PageBytes int
	// MeanAccesses is the predicted leaf accesses per query at this
	// page size.
	MeanAccesses float64
	// SecondsPerQuery prices the accesses as random reads on the
	// paper's disk (10 ms seek, 20 MB/s bandwidth).
	SecondsPerQuery float64
}

// TunePageSize runs the paper's Section 6.1 application as one call:
// predict the per-query I/O cost of the workload for every candidate
// page size and report the cheapest, without building a single index
// on disk. Candidates are in bytes; nil sweeps 8 KB to 256 KB in
// doublings. The restricted-memory resampled predictor is used where
// the tree is tall enough and the basic model otherwise (very large
// pages flatten the tree below the upper/lower split, which the
// resampled predictor reports as ErrFlatTree). Any other estimation
// error aborts the sweep.
func (p *Predictor) TunePageSize(candidates []int, opts EstimateOptions) (best PageSizeChoice, all []PageSizeChoice, err error) {
	if len(candidates) == 0 {
		candidates = []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
	}
	const seekSeconds, bandwidth = 0.010, 20e6
	for _, pb := range candidates {
		if pb < 1024 {
			return PageSizeChoice{}, nil, fmt.Errorf("hdidx: page size %d below 1 KB", pb)
		}
		cand, err := NewPredictor(p.points, WithPageBytes(pb), WithUtilization(p.g.Utilization))
		if err != nil {
			return PageSizeChoice{}, nil, err
		}
		est, err := cand.EstimateKNN(MethodResampled, opts)
		if errors.Is(err, ErrFlatTree) {
			// Only the flat-tree condition falls back: this page size
			// has no upper/lower split and the basic model covers it.
			est, err = cand.EstimateKNN(MethodBasic, opts)
		}
		if err != nil {
			return PageSizeChoice{}, nil, fmt.Errorf("hdidx: page %d: %w", pb, err)
		}
		choice := PageSizeChoice{
			PageBytes:       pb,
			MeanAccesses:    est.MeanAccesses,
			SecondsPerQuery: est.MeanAccesses * (seekSeconds + float64(pb)/bandwidth),
		}
		all = append(all, choice)
		if best.PageBytes == 0 || choice.SecondsPerQuery < best.SecondsPerQuery {
			best = choice
		}
	}
	return best, all, nil
}

// MeasureKNNAccesses builds the full index in memory and measures the
// average leaf accesses of the same workload an Estimate predicts —
// the ground truth for evaluating predictions.
func (p *Predictor) MeasureKNNAccesses(opts EstimateOptions) (float64, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return 0, err
	}
	pool := par.PoolOf(o.Workers)
	rng := rand.New(rand.NewSource(o.Seed))
	k := o.K
	if k > len(p.points) {
		k = len(p.points)
	}
	queryPoints := make([][]float64, o.Queries)
	for i := range queryPoints {
		queryPoints[i] = p.points[rng.Intn(len(p.points))]
	}
	tr := obs.TraceIfEnabled("hdidx.measure.knn", nil)
	sp := tr.Span("workload.spheres")
	spheres := query.ComputeSpheresPool(p.points, queryPoints, k, pool)
	sp.End()
	sp = tr.Span("measure.inmemory")
	// The bulk load reorders its input: give it a copy, so the caller's
	// slice and the next call's query draws stay as they were.
	cp := make([][]float64, len(p.points))
	copy(cp, p.points)
	out := stats.Mean(core.MeasureInMemory(cp, p.g, spheres, pool))
	sp.End()
	return out, nil
}
