package core

import (
	"fmt"
	"math"

	"hdidx/internal/dataset"
	"hdidx/internal/disk"
	"hdidx/internal/mbr"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
)

// upperResult carries the state shared by the cutoff and resampled
// predictors after their common prefix (Figure 5 / Figure 7 steps
// 1-5): the topology, the query spheres from the dataset scan, and the
// grown upper tree leaf pages.
type upperResult struct {
	topo        rtree.Topology
	hUpper      int
	leafLevel   int // tree level of the upper tree's leaves
	sigmaUpper  float64
	spheres     []query.Sphere
	grownLeaves []mbr.Rect
	queryPoints [][]float64
}

// buildUpper performs the common prefix of both restricted-memory
// predictors against the on-disk dataset:
//
//	(1) determine the tree topology;
//	(2) read q query points randomly from the dataset;
//	(3) scan the whole dataset to determine the query spheres and to
//	    draw a sample of size M into memory;
//	(5) build the upper tree on the sample and grow its leaf pages by
//	    the compensation factor delta(pts(height-h_upper+1), sigma_upper).
//
// All dataset accesses are charged to pf's disk.
func buildUpper(pf *disk.PointFile, cfg Config, needLower bool) (*upperResult, error) {
	n := pf.Len()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	topo := rtree.NewTopology(n, cfg.Geometry)
	if topo.Height < 3 {
		return nil, fmt.Errorf("core: index of height %d has no upper/lower split; use PredictBasic: %w", topo.Height, ErrFlatTree)
	}
	hUpper, err := chooseHUpper(topo, cfg, needLower)
	if err != nil {
		return nil, err
	}
	leafLevel := topo.UpperLeafLevel(hUpper)

	// (2) Read the query points: q random single-page accesses.
	sp := cfg.Trace.Span(PhaseQueriesRead)
	queryPoints := make([][]float64, len(cfg.QueryIndices))
	for i, qi := range cfg.QueryIndices {
		queryPoints[i] = pf.ReadPoint(qi)
	}
	sp.End()

	// (3) One scan: query spheres plus an M-point reservoir sample.
	// For range workloads (FixedRadius > 0) the radii are given and
	// only the sample is drawn; the scan I/O is identical.
	sp = cfg.Trace.Span(PhaseSampleScan)
	var scanner *query.SphereScanner
	if cfg.FixedRadius == 0 {
		scanner = query.NewSphereScanner(queryPoints, cfg.K)
	}
	reservoir := dataset.NewReservoir(cfg.M, cfg.Rng)
	chunk := scanChunk(cfg.M)
	for off := 0; off < n; off += chunk {
		c := n - off
		if c > chunk {
			c = chunk
		}
		pts := pf.ReadRange(off, c)
		if scanner != nil {
			scanner.Process(pts)
		}
		for _, p := range pts {
			reservoir.Offer(p)
		}
	}
	sigmaUpper := math.Min(float64(cfg.M)/float64(n), 1)
	var spheres []query.Sphere
	if scanner != nil {
		spheres = scanner.Spheres()
	} else {
		spheres = query.Balls(queryPoints, cfg.FixedRadius)
	}
	sp.End()

	// (5) Build the upper tree on the sample. Its "leaf" capacity is
	// the subtree capacity at the upper leaf level, scaled by the
	// sampling rate so the structure mirrors the full index.
	sp = cfg.Trace.Span(PhaseUpperBuild)
	params := rtree.BuildParams{
		LeafCap: topo.SubtreeCapacity(leafLevel) * sigmaUpper,
		DirCap:  float64(topo.EffDirCapacity()),
		Height:  hUpper,
	}
	upper := rtree.Build(reservoir.Sample(), params)
	sp.End()

	grow := safeCompensation(topo.Pts(leafLevel), sigmaUpper)
	return &upperResult{
		topo:        topo,
		hUpper:      hUpper,
		leafLevel:   leafLevel,
		sigmaUpper:  sigmaUpper,
		spheres:     spheres,
		grownLeaves: growAll(upper.LeafRects(), grow),
		queryPoints: queryPoints,
	}, nil
}

// fanoutAt returns the average fanout of directory nodes at the given
// level of the full topology.
func fanoutAt(topo rtree.Topology, level int) int {
	below := topo.NodesAtLevel(level - 1)
	here := topo.NodesAtLevel(level)
	return (below + here - 1) / here
}

// splitBoxToLeaves derives leaf-level page rectangles from an upper
// leaf box under the uniformity assumption of Section 4.3: at each
// level the box is divided by recursive binary splits along its
// longest side (which for uniform data is the maximum-variance
// dimension) into the fanout the full topology prescribes.
func splitBoxToLeaves(box mbr.Rect, topo rtree.Topology, fromLevel int) []mbr.Rect {
	rects := []mbr.Rect{box}
	for l := fromLevel; l >= 2; l-- {
		f := fanoutAt(topo, l)
		next := make([]mbr.Rect, 0, len(rects)*f)
		for _, r := range rects {
			next = appendBoxSplits(next, r, f)
		}
		rects = next
	}
	return rects
}

// appendBoxSplits divides r into k boxes by recursive proportional
// binary splits along the longest side and appends them to dst.
func appendBoxSplits(dst []mbr.Rect, r mbr.Rect, k int) []mbr.Rect {
	if k <= 1 {
		return append(dst, r)
	}
	kl := k / 2
	dim := r.LongestDim()
	x := r.Lo[dim] + r.Side(dim)*float64(kl)/float64(k)
	left, right := r.SplitAt(dim, x)
	dst = appendBoxSplits(dst, left, kl)
	return appendBoxSplits(dst, right, k-kl)
}
