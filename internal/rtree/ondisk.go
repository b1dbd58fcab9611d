package rtree

import (
	"math"

	"hdidx/internal/disk"
	"hdidx/internal/obs"
	"hdidx/internal/vec"
)

// On-disk bulk loading (paper Section 4.1). The data lives in a
// PointFile on the simulated disk; the builder partitions it with
// external maximum-variance splits, charging every chunked read and
// write to the disk, and switches to the in-memory builder once a
// range fits into the M-point memory. The resulting I/O exceeds the
// best-case analytic bound of costmodel.OnDiskBuild — reproducing the
// paper's observation that measured build cost on real data is five to
// ten times the analytic best case.
//
// The simulation is a cost model: the Go process naturally holds the
// whole dataset, but only accesses routed through the PointFile are
// charged, in chunks of at most M points, exactly as an external
// implementation would issue them.

// BuildOnDisk bulk-loads a tree over the points stored in pf, charging
// all I/O to pf's disk. memoryPoints is M, the number of points that
// fit in memory. The returned tree references decoded copies of the
// points; pf itself ends up physically reordered into the leaf layout.
//
// The build's stages are recorded as phase spans on tr:
// "ondisk.variance" (chunked variance scans), "ondisk.partition"
// (external split read+write passes), "ondisk.leaf" (reading a
// memory-sized range, building its subtree in memory, and writing the
// reordered data pages back), and "ondisk.dir" (the trailing
// directory-page writes). The phases cover every disk access of the
// build. A nil tr disables tracing.
func BuildOnDisk(pf *disk.PointFile, params BuildParams, memoryPoints int, tr *obs.Trace) *Tree {
	if pf.Len() == 0 {
		panic("rtree: BuildOnDisk on empty file")
	}
	if memoryPoints < 1 {
		panic("rtree: memory must hold at least one point")
	}
	height := params.Height
	if height <= 0 {
		height = params.DeriveHeight(pf.Len())
	}
	e := &extBuilder{pf: pf, params: params, m: memoryPoints, tr: tr}
	root := e.build(0, pf.Len(), height)
	t := &Tree{
		Root:      root,
		Dim:       pf.Dim(),
		Params:    params,
		NumPoints: pf.Len(),
	}
	finish(t)
	// Charge the directory page writes: one page per directory node,
	// written sequentially at the end of the build.
	sp := tr.Span("ondisk.dir")
	dirNodes := t.NumNodes() - t.NumLeaves()
	if dirNodes > 0 {
		dirFile := pfDisk(pf).Alloc(int64(dirNodes) * int64(pfDisk(pf).Params().PageBytes))
		dirFile.TouchPages(0, int64(dirNodes))
	}
	sp.End()
	return t
}

func pfDisk(pf *disk.PointFile) *disk.Disk { return pf.File().Disk() }

type extBuilder struct {
	pf     *disk.PointFile
	params BuildParams
	m      int
	tr     *obs.Trace
}

// build constructs the subtree of the given height over file range
// [lo, hi).
func (e *extBuilder) build(lo, hi, level int) *Node {
	n := hi - lo
	if n <= e.m || level == 1 {
		// The range fits in memory: read it once, build the whole
		// subtree with the in-memory builder, and write the reordered
		// data pages back.
		sp := e.tr.Span("ondisk.leaf")
		pts := e.readRange(lo, hi)
		b := &builder{params: e.params}
		node := b.buildLevel(pts, level)
		e.writeBackLeaves(node, lo)
		sp.End()
		return node
	}
	subcap := e.params.subtreeCap(level - 1)
	k := int(math.Ceil(float64(n) / subcap))
	if k > int(math.Ceil(e.params.DirCap)) {
		k = int(math.Ceil(e.params.DirCap))
	}
	node := &Node{Level: level}
	e.split(lo, hi, k, subcap, level-1, node)
	node.Rect = node.Children[0].Rect.Clone()
	for _, c := range node.Children[1:] {
		node.Rect.ExtendRect(c.Rect)
	}
	return node
}

// split performs the external k-way VAMSplit over [lo, hi) and builds
// the child subtrees.
func (e *extBuilder) split(lo, hi, k int, subcap float64, childLevel int, parent *Node) {
	if k <= 1 {
		parent.Children = append(parent.Children, e.build(lo, hi, childLevel))
		return
	}
	kl, cut := chooseCut(hi-lo, k, subcap)
	if cut == 0 {
		parent.Children = append(parent.Children, e.build(lo, hi, childLevel))
		return
	}
	sp := e.tr.Span("ondisk.variance")
	dim := e.maxVarianceDim(lo, hi)
	sp.End()
	sp = e.tr.Span("ondisk.partition")
	e.partition(lo, hi, dim, cut)
	sp.End()
	e.split(lo, lo+cut, kl, subcap, childLevel, parent)
	e.split(lo+cut, hi, k-kl, subcap, childLevel, parent)
}

// readRange reads [lo, hi) in chunks of at most M points, charging
// each chunk as one sequential sweep.
func (e *extBuilder) readRange(lo, hi int) [][]float64 {
	pts := make([][]float64, 0, hi-lo)
	for off := lo; off < hi; off += e.m {
		c := hi - off
		if c > e.m {
			c = e.m
		}
		pts = append(pts, e.pf.ReadRange(off, c)...)
	}
	return pts
}

// writeRange writes pts back to [lo, lo+len) in chunks of at most M.
func (e *extBuilder) writeRange(lo int, pts [][]float64) {
	for off := 0; off < len(pts); off += e.m {
		c := len(pts) - off
		if c > e.m {
			c = e.m
		}
		e.pf.WriteRange(lo+off, pts[off:off+c])
	}
}

// writeBackLeaves writes the points of the subtree rooted at node back
// to the file in leaf order starting at lo (the data page layout the
// bulk loader produces).
func (e *extBuilder) writeBackLeaves(node *Node, lo int) {
	pts := make([][]float64, 0)
	var collect func(n *Node)
	collect = func(n *Node) {
		if n.IsLeaf() {
			pts = append(pts, n.Points...)
			return
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(node)
	e.writeRange(lo, pts)
}

// maxVarianceDim scans [lo, hi) in chunks and returns the dimension of
// maximum variance.
func (e *extBuilder) maxVarianceDim(lo, hi int) int {
	dim := e.pf.Dim()
	sum := make([]float64, dim)
	sumSq := make([]float64, dim)
	for off := lo; off < hi; off += e.m {
		c := hi - off
		if c > e.m {
			c = e.m
		}
		for _, p := range e.pf.ReadRange(off, c) {
			for j, v := range p {
				sum[j] += v
				sumSq[j] += v * v
			}
		}
	}
	n := float64(hi - lo)
	best, bestVar := 0, math.Inf(-1)
	for j := 0; j < dim; j++ {
		variance := sumSq[j]/n - (sum[j]/n)*(sum[j]/n)
		if variance > bestVar {
			best, bestVar = j, variance
		}
	}
	return best
}

// partition rearranges [lo, hi) so that the cut smallest points by
// coordinate dim come first. The I/O charged is one chunked read plus
// one chunked write of the range — the lower bound for an external
// count-split; a real external quickselect performs at least this much.
func (e *extBuilder) partition(lo, hi, dim, cut int) {
	pts := e.readRange(lo, hi)
	vec.SelectByDim(pts, dim, cut-1)
	e.writeRange(lo, pts)
}
