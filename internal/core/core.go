// Package core implements the paper's contribution: sampling-based
// prediction of index page accesses (Lang & Singh, SIGMOD 2001).
//
// Three predictors are provided:
//
//   - PredictBasic — the unlimited-memory model of Section 3: build a
//     structurally similar mini-index on an in-memory sample, grow its
//     leaf pages by the compensation factor of Theorem 1, and count
//     query-sphere/leaf intersections.
//   - PredictCutoff — the cutoff index tree of Section 4.3: build only
//     the upper tree on an M-point sample, then derive the lower tree
//     page geometry analytically assuming uniformity within each upper
//     leaf. Costs one dataset scan.
//   - PredictResampled — the resampled index tree of Section 4.4:
//     build the upper tree, then resample the dataset at the boosted
//     rate sigma_lower into k consecutive disk areas and build each
//     lower tree on its area with the full memory. Costs two dataset
//     scans plus the area writes, still one to two orders of magnitude
//     below building the index on disk.
//
// The cutoff and resampled predictors take their input from a
// disk.PointFile and charge every read and write to the simulated
// disk, so the I/O costs they report are measured, not estimated.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"hdidx/internal/disk"
	"hdidx/internal/mbr"
	"hdidx/internal/obs"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
)

// ErrFlatTree reports that the modeled index is too flat for the
// restricted-memory predictors: either the full tree has fewer than
// three levels (no upper/lower split exists) or no upper tree height
// satisfies the Section 4.5.1 bounds for the given memory size. Both
// conditions mean PredictBasic is the right model, so callers sweeping
// configurations (e.g. page-size tuning, where very large pages
// flatten the tree) test for this sentinel with errors.Is and fall
// back — every other error is a real failure and must propagate.
var ErrFlatTree = errors.New("tree too flat for an upper/lower split")

// Phase names recorded by the predictors. Within one prediction the
// top-level phases do not overlap and cover every disk access, so
// their I/O costs sum to the prediction's total IOSeconds.
const (
	// PhaseQueriesRead covers the q random reads of the query points.
	PhaseQueriesRead = "queries.read"
	// PhaseSampleScan covers the first full dataset scan that computes
	// the query spheres and draws the M-point reservoir sample.
	PhaseSampleScan = "sample.scan"
	// PhaseUpperBuild covers the in-memory upper tree bulk load.
	PhaseUpperBuild = "upper.build"
	// PhaseResampleScan covers the second dataset scan of the
	// resampled predictor (reads plus point classification).
	PhaseResampleScan = "resample.scan"
	// PhaseAreaWrite covers the writes into the k consecutive areas.
	PhaseAreaWrite = "area.write"
	// PhaseLowerBuild covers reading each area back and bulk-loading
	// its lower tree.
	PhaseLowerBuild = "lower.build"
	// PhaseLowerDerive covers the cutoff predictor's analytic
	// derivation of the lower-tree geometry (CPU only).
	PhaseLowerDerive = "lower.derive"
	// PhaseSampleDraw covers the basic predictor's in-memory sample.
	PhaseSampleDraw = "sample.draw"
	// PhaseMiniBuild covers the basic predictor's mini-index build.
	PhaseMiniBuild = "mini.build"
	// PhaseIntersect covers the sphere/leaf intersection counting.
	PhaseIntersect = "intersect.count"
)

// Config parameterizes the restricted-memory predictors.
type Config struct {
	// Geometry is the page geometry of the on-disk index being
	// predicted.
	Geometry rtree.Geometry
	// M is the number of data points that fit in memory: the size of
	// the upper-tree sample and of each lower-tree area.
	M int
	// K is the k of the k-NN workload.
	K int
	// QueryIndices are the dataset positions of the query points
	// (density-biased: drawn uniformly from the dataset). Experiments
	// share one index set between measurement and all predictors.
	QueryIndices []int
	// HUpper forces the upper tree height; 0 selects it automatically
	// per Section 4.5.
	HUpper int
	// Rng drives the sampling.
	Rng *rand.Rand

	// FixedRadius switches the workload from k-NN to range queries:
	// when positive, every query sphere uses this radius around the
	// query points and no k-NN radii are computed during the scan
	// (the paper notes the technique applies to range queries
	// unchanged — only the query regions differ). K is ignored.
	FixedRadius float64

	// DiscardOutside is an ablation switch for the resampled
	// predictor: drop resampled points that fall outside every upper
	// leaf page instead of assigning them to the closest page
	// (Section 4.4 assigns to the closest; discarding shows why).
	DiscardOutside bool
	// AdaptiveCompensation is an extension beyond the paper: grow each
	// lower tree's leaf pages with the area's *effective* sampling
	// rate (accounting for points lost to area overflow and skewed
	// assignment) instead of the nominal sigma_lower. This tightens
	// predictions at sigma_lower < 1.
	AdaptiveCompensation bool

	// Trace, when non-nil, receives one span per pipeline phase (see
	// the Phase* constants). Nil disables tracing at no cost.
	Trace *obs.Trace
}

func (c Config) validate(n int) error {
	if c.M < 1 {
		return fmt.Errorf("core: memory must hold at least one point, got M=%d", c.M)
	}
	if c.FixedRadius < 0 {
		return fmt.Errorf("core: negative range radius %g", c.FixedRadius)
	}
	if c.FixedRadius == 0 && (c.K < 1 || c.K > n) {
		return fmt.Errorf("core: k=%d outside [1, %d]", c.K, n)
	}
	if len(c.QueryIndices) == 0 {
		return fmt.Errorf("core: no query points")
	}
	for _, qi := range c.QueryIndices {
		if qi < 0 || qi >= n {
			return fmt.Errorf("core: query index %d outside dataset of %d points", qi, n)
		}
	}
	if c.Rng == nil {
		return fmt.Errorf("core: Config.Rng must be set")
	}
	return nil
}

// Prediction is the output of a predictor.
type Prediction struct {
	// Method names the predictor ("basic", "cutoff", "resampled").
	Method string
	// PerQuery holds the predicted leaf page accesses per query.
	PerQuery []float64
	// Mean is the average of PerQuery.
	Mean float64
	// IO is the disk activity the prediction itself incurred.
	IO disk.Counters
	// IOSeconds prices IO under the disk parameters used.
	IOSeconds float64
	// HUpper, SigmaUpper, SigmaLower, UpperLeaves document the
	// parameters the restricted-memory predictors ran with.
	HUpper      int
	SigmaUpper  float64
	SigmaLower  float64
	UpperLeaves int
	// LeafRects is the predicted leaf page layout.
	LeafRects []mbr.Rect
	// Phases is the per-phase breakdown recorded on Config.Trace (nil
	// when tracing was disabled). The top-level phases' IOSeconds sum
	// to IOSeconds.
	Phases []obs.Phase
}

func summarize(p *Prediction) {
	var sum float64
	for _, v := range p.PerQuery {
		sum += v
	}
	if len(p.PerQuery) > 0 {
		p.Mean = sum / float64(len(p.PerQuery))
	}
}

// countIntersections fills PerQuery from the predicted leaf layout,
// counted the way the measurement counts a built tree's leaves.
func countIntersections(p *Prediction, spheres []query.Sphere) {
	p.PerQuery = query.MeasureLeafAccessesSet(mbr.NewRectSet(p.LeafRects), spheres)
	summarize(p)
}

// safeCompensation returns the compensation side factor, or 1 when the
// sampled capacity is at or below the 1/C limit where Theorem 1 is
// undefined (the paper's minimum sample rate constraint).
func safeCompensation(capacity, zeta float64) float64 {
	if capacity <= 1 || zeta <= 0 || zeta >= 1 {
		return 1
	}
	if capacity*zeta <= 1+1e-9 {
		return 1
	}
	return mbr.CompensationSideFactor(capacity, zeta)
}

// growAll grows every rectangle by the given side factor about its
// center.
func growAll(rects []mbr.Rect, factor float64) []mbr.Rect {
	out := make([]mbr.Rect, len(rects))
	for i, r := range rects {
		out[i] = r.GrowCentered(factor)
	}
	return out
}

// chooseHUpper resolves the configured or automatic upper tree height
// for the memory size cfg.M. Automatic selection failures mean no
// valid upper/lower split exists for this topology and memory size,
// and are tagged with ErrFlatTree; an explicitly configured height
// that is out of range is a caller error and is not.
func chooseHUpper(topo rtree.Topology, cfg Config, needLower bool) (int, error) {
	if cfg.HUpper > 0 {
		if cfg.HUpper < 2 || cfg.HUpper > topo.Height-1 {
			return 0, fmt.Errorf("core: h_upper=%d outside [2, %d]", cfg.HUpper, topo.Height-1)
		}
		return cfg.HUpper, nil
	}
	h, err := topo.ChooseHUpper(cfg.M, needLower)
	if err != nil {
		return 0, fmt.Errorf("core: %w: %v", ErrFlatTree, err)
	}
	return h, nil
}

// scanChunk is the number of source points read per chunked scan step
// given the memory size in points.
func scanChunk(m int) int {
	if m < 1 {
		return 1
	}
	return m
}
