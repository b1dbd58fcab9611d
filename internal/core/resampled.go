package core

import (
	"math"

	"hdidx/internal/disk"
	"hdidx/internal/mbr"
	"hdidx/internal/par"
	"hdidx/internal/rtree"
)

// PredictResampled implements the resampled index tree of Section 4.4.
// After the upper tree is built, the dataset is scanned a second time
// at the boosted sampling rate sigma_lower = min(k*M/N, 1); every
// sampled point is assigned to the upper leaf page containing it (or
// the closest page by Euclidean distance, growing that page) and
// written to one of k consecutive disk areas. Each area is then read
// back and its lower tree is bulk-loaded in memory with the full
// M-point budget, its leaf pages compensated by delta(C_eff,data,
// sigma_lower). The prediction counts query-sphere intersections with
// the lower tree leaves.
func PredictResampled(pf *disk.PointFile, cfg Config) (Prediction, error) {
	d := pf.File().Disk()
	before := d.Counters()

	up, err := buildUpper(pf, cfg, true)
	if err != nil {
		return Prediction{}, err
	}
	n := pf.Len()
	k := len(up.grownLeaves)
	sigmaLower := math.Min(float64(k*cfg.M)/float64(n), 1)

	// (6)-(7) Second scan: resample at sigma_lower and distribute the
	// points over k consecutive disk areas of capacity M each. Points
	// beyond an area's capacity are discarded (paper footnote 5).
	// Assignment tests against the static grown upper leaf pages;
	// boxes tracks the adjusted page extents (Figure 6b) for the
	// empty-area fallback. Classifying against the adjusted boxes
	// instead would let early-growing pages capture ever more points —
	// a feedback loop that overflows their areas.
	boxes := make([]mbr.Rect, k)
	for i, b := range up.grownLeaves {
		boxes[i] = b.Clone()
	}
	grownSet := mbr.NewRectSet(up.grownLeaves)
	areas := make([]*disk.PointFile, k)
	for i := range areas {
		areas[i] = disk.NewPointFile(d, pf.Dim(), cfg.M)
	}
	// Read in chunks spanning ~M sampled points each, as in Figure 8.
	srcChunk := scanChunk(cfg.M)
	if sigmaLower < 1 {
		srcChunk = scanChunk(int(float64(cfg.M) / sigmaLower))
	}
	buffers := make([][][]float64, k)
	attempted := make([]int, k)
	assign := make([]int, srcChunk)
	for off := 0; off < n; off += srcChunk {
		c := n - off
		if c > srcChunk {
			c = srcChunk
		}
		sp := cfg.Trace.Span(PhaseResampleScan)
		pts := pf.ReadRange(off, c)
		// Bernoulli-subsample the chunk at sigma_lower.
		kept := pts
		if sigmaLower < 1 {
			kept = kept[:0]
			for _, p := range pts {
				if cfg.Rng.Float64() < sigmaLower {
					kept = append(kept, p)
				}
			}
		}
		// Classify in parallel against the static grown pages, then
		// apply the bookkeeping box growth sequentially.
		assign = assign[:len(kept)]
		classifyPoints(kept, grownSet, assign, cfg.DiscardOutside)
		for i, p := range kept {
			b := assign[i]
			if b < 0 {
				continue // DiscardOutside ablation
			}
			attempted[b]++
			boxes[b].Extend(p)
			buffers[b] = append(buffers[b], p)
		}
		sp.End()
		// Flush each non-empty buffer to its area: one seek plus the
		// page transfers per area, as in the paper's distribution step.
		sp = cfg.Trace.Span(PhaseAreaWrite)
		for b, buf := range buffers {
			if len(buf) == 0 {
				continue
			}
			free := areas[b].Cap() - areas[b].Len()
			if len(buf) > free {
				buf = buf[:free]
			}
			if len(buf) > 0 {
				areas[b].AppendAll(buf)
			}
			buffers[b] = buffers[b][:0]
		}
		sp.End()
	}

	// (8)-(11) Build each lower tree on its area with full memory.
	sp := cfg.Trace.Span(PhaseLowerBuild)
	ceff := float64(up.topo.EffDataCapacity())
	dirCap := float64(up.topo.EffDirCapacity())
	leaves := make([]mbr.Rect, 0, up.topo.Leaves())
	for i, area := range areas {
		if area.Len() == 0 {
			// An upper leaf that attracted no resampled points: fall
			// back to the cutoff geometry for its subtree.
			leaves = append(leaves, splitBoxToLeaves(boxes[i], up.topo, up.leafLevel)...)
			continue
		}
		// The nominal rate is sigma_lower; the adaptive extension
		// additionally accounts for points this area lost to capacity
		// overflow (paper footnote 5 discards them silently).
		zeta := sigmaLower
		if cfg.AdaptiveCompensation && attempted[i] > 0 {
			zeta = sigmaLower * float64(area.Len()) / float64(attempted[i])
		}
		pts := area.ReadAll()
		lower := rtree.Build(pts, rtree.BuildParams{
			LeafCap: ceff * zeta,
			DirCap:  dirCap,
			Height:  up.leafLevel,
		})
		compensate := safeCompensation(ceff, zeta)
		for _, r := range lower.LeafRects() {
			leaves = append(leaves, r.GrowCentered(compensate))
		}
	}
	sp.End()

	p := Prediction{
		Method:      "resampled",
		HUpper:      up.hUpper,
		SigmaUpper:  up.sigmaUpper,
		SigmaLower:  sigmaLower,
		UpperLeaves: k,
		LeafRects:   leaves,
		IO:          d.Counters().Sub(before),
	}
	p.IOSeconds = p.IO.CostSeconds(d.Params())
	sp = cfg.Trace.Span(PhaseIntersect)
	countIntersections(&p, up.spheres)
	sp.End()
	p.Phases = cfg.Trace.Phases()
	return p, nil
}

// classifyPoints assigns each point to the index of the box containing
// it, or the closest box by MinDist when none contains it. With
// discardOutside, points contained in no box get -1 instead. The
// assignment runs the flat early-exit classifier in parallel over
// points.
func classifyPoints(pts [][]float64, boxes *mbr.RectSet, out []int, discardOutside bool) {
	par.For(len(pts), func(i int) {
		best, contained := boxes.Classify(pts[i])
		if discardOutside && !contained {
			best = -1
		}
		out[i] = best
	})
}
