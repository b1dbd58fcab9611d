package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"hdidx/internal/mbr"
)

// Dynamic R*-tree insertion (Beckmann, Kriegel, Schneider & Seeger,
// SIGMOD 1990): ChooseSubtree with minimum overlap enlargement at the
// leaf level, the topological R* split (minimum-margin axis, minimum-
// overlap distribution), and forced reinsertion of the 30% outermost
// entries on the first overflow per level.
//
// The paper's prediction problem statement covers "index structures
// that organize the data in fixed-capacity pages with a given storage
// utilization"; a dynamically grown R*-tree is the canonical instance
// whose utilization is *not* the bulk loader's near-100% but the
// 60-75% dynamic splits settle at. The dynamic-index experiment
// measures that utilization and feeds it to the predictors.

// reinsertFraction is the share of entries removed on forced reinsert.
const reinsertFraction = 0.3

// minFillFraction is the R*-tree minimum fill m/M.
const minFillFraction = 0.4

// minDirCap and minDirFill floor a directory page's capacity M and
// minimum fill m. A balanced R-tree needs m >= 2 and M >= 2m: with m = 1
// the R* split keeps cutting off one-entry nodes, every root split adds
// a level, and the tree grows into a chain. Pages of five or more
// entries already have m = ⌊0.4·M⌋ >= 2 and are unchanged; a smaller
// page (every d >= 205 at 8 KB) holds four entries and overflows its
// byte budget, like an X-tree supernode.
const (
	minDirCap  = 4
	minDirFill = 2
)

// DynamicTree wraps a Tree grown by insertion. It has a single
// writer, so the working memory of ChooseSubtree and the split lives
// in the tree and is reused by every insert.
type DynamicTree struct {
	Tree
	maxLeaf int
	maxDir  int
	minLeaf int
	minDir  int

	// reinserted has bit level-1 set once forced reinsertion has run at
	// that level during the current Insert (levels from 64 up, which no
	// real tree reaches, share the top bit).
	reinserted uint64
	cs         chooser
	sp         splitter
}

// NewDynamic returns an empty dynamic R*-tree with the page capacities
// of g (the *maximum* capacities — dynamic trees fill pages to the
// brim and split, which is what produces sub-unit utilization).
func NewDynamic(g Geometry) *DynamicTree {
	maxLeaf := g.MaxDataCapacity()
	if maxLeaf < 2 {
		maxLeaf = 2
	}
	return NewDynamicCustom(g.Dim, maxLeaf, g.MaxDirCapacity())
}

// NewDynamicCustom returns an empty dynamic R*-tree with explicit page
// capacities. The sampling predictors use it to build structurally
// similar dynamic mini-indexes: the leaf capacity scales with the
// sampling fraction while the directory capacity stays that of the
// full index (Section 3.1's structural-similarity requirement, applied
// to the insertion algorithm instead of the bulk loader). A directory
// capacity below minDirCap is raised to it.
func NewDynamicCustom(dim, maxLeaf, maxDir int) *DynamicTree {
	if dim < 1 || maxLeaf < 2 || maxDir < 2 {
		panic(fmt.Sprintf("rtree: invalid dynamic capacities dim=%d leaf=%d dir=%d", dim, maxLeaf, maxDir))
	}
	maxDir = maxInt(maxDir, minDirCap)
	t := &DynamicTree{
		maxLeaf: maxLeaf,
		maxDir:  maxDir,
		minLeaf: maxInt(1, int(float64(maxLeaf)*minFillFraction)),
		minDir:  maxInt(minDirFill, int(float64(maxDir)*minFillFraction)),
	}
	t.Dim = dim
	t.Params = BuildParams{LeafCap: float64(maxLeaf), DirCap: float64(maxDir)}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Insert adds one point.
func (t *DynamicTree) Insert(p []float64) {
	if len(p) != t.Dim {
		panic(fmt.Sprintf("rtree: insert dimension %d != tree dimension %d", len(p), t.Dim))
	}
	t.dirty = true
	t.NumPoints++
	if t.Root == nil {
		t.Root = &Node{Level: 1, Rect: mbr.New(p), Points: [][]float64{p}}
		return
	}
	t.reinserted = 0
	t.insertAtLevel(p, nil, 1)
}

// insertAtLevel inserts either a point (subtree == nil) at level 1 or
// a subtree at the given level, applying forced reinsertion once per
// level per insertion.
func (t *DynamicTree) insertAtLevel(p []float64, subtree *Node, level int) {
	split := t.insert(t.Root, p, subtree, level)
	if split != nil {
		old := t.Root
		t.Root = &Node{
			Level:    old.Level + 1,
			Rect:     mbr.Union(old.Rect, split.Rect),
			Children: []*Node{old, split},
		}
	}
}

// insert descends to the target level and returns a split sibling if
// the node overflowed and was split (nil otherwise).
func (t *DynamicTree) insert(n *Node, p []float64, subtree *Node, level int) *Node {
	if subtree == nil {
		n.Rect.Extend(p)
	} else {
		n.Rect.ExtendRect(subtree.Rect)
	}
	if n.Level == level {
		if subtree == nil {
			n.Points = append(n.Points, p)
		} else {
			n.Children = append(n.Children, subtree)
		}
		return t.handleOverflow(n)
	}
	child := t.chooseSubtree(n, p, subtree)
	if split := t.insert(child, p, subtree, level); split != nil {
		n.Children = append(n.Children, split)
		return t.handleOverflow(n)
	}
	return nil
}

func (t *DynamicTree) capacityOf(n *Node) int {
	if n.IsLeaf() {
		return t.maxLeaf
	}
	return t.maxDir
}

func (n *Node) fanout() int {
	if n.IsLeaf() {
		return len(n.Points)
	}
	return len(n.Children)
}

// handleOverflow applies forced reinsertion on the first overflow at a
// level (unless it is the root) and splits otherwise.
func (t *DynamicTree) handleOverflow(n *Node) *Node {
	if n.fanout() <= t.capacityOf(n) {
		return nil
	}
	if bit := uint64(1) << min(n.Level-1, 63); n != t.Root && t.reinserted&bit == 0 {
		t.reinserted |= bit
		t.reinsert(n)
		return nil
	}
	return t.split(n)
}

// reinsert removes the reinsertFraction entries farthest from the
// node's center and inserts them again from the top, farthest first
// (the "far reinsert" variant of R*).
func (t *DynamicTree) reinsert(n *Node) {
	c := n.Rect.Center()
	count := int(float64(n.fanout()) * reinsertFraction)
	if count < 1 {
		count = 1
	}
	if n.IsLeaf() {
		byDistance(n.Points, func(p []float64) float64 { return sqDistTo(p, c) })
		removed := append([][]float64(nil), n.Points[len(n.Points)-count:]...)
		n.Points = n.Points[:len(n.Points)-count]
		recomputeRect(n)
		for i := len(removed) - 1; i >= 0; i-- {
			t.insertAtLevel(removed[i], nil, 1)
		}
		return
	}
	byDistance(n.Children, func(ch *Node) float64 { return sqDistTo(ch.Rect.Center(), c) })
	removed := append([]*Node(nil), n.Children[len(n.Children)-count:]...)
	n.Children = n.Children[:len(n.Children)-count]
	recomputeRect(n)
	for i := len(removed) - 1; i >= 0; i-- {
		t.insertAtLevel(nil, removed[i], n.Level)
	}
}

// byDistance sorts entries by ascending dist, computing each entry's
// distance once. Sorting (entry, distance) pairs makes the comparisons
// and swaps that sorting the entries themselves would, so the
// permutation is the same.
func byDistance[E any](entries []E, dist func(E) float64) {
	type keyed struct {
		e E
		d float64
	}
	ks := make([]keyed, len(entries))
	for i, e := range entries {
		ks[i] = keyed{e, dist(e)}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].d < ks[j].d })
	for i, k := range ks {
		entries[i] = k.e
	}
}

func sqDistTo(p, c []float64) float64 {
	var s float64
	for i := range p {
		d := p[i] - c[i]
		s += d * d
	}
	return s
}

func recomputeRect(n *Node) {
	if n.IsLeaf() {
		n.Rect = mbr.Bound(n.Points)
		return
	}
	n.Rect = n.Children[0].Rect.Clone()
	for _, c := range n.Children[1:] {
		n.Rect.ExtendRect(c.Rect)
	}
}

// chooseSubtree implements the R*-tree descent heuristic: the child
// with the least overlap enlargement, ties going to the least
// enlargement, then to the smallest child, then to the first. Overlap
// counts only at the parent of the leaves, when a point descends.
// Margins stand in for volumes, which underflow in high dimensions.
//
// It chooses what the exhaustive loop (every sum finished, children in
// child order) chooses, for coordinates that are not NaN, with less
// work. A child's overlap enlargement sums, in child order, one term
// per sibling o: overlapMargin(enlarged, o) − overlapMargin(child, o).
// While margins are finite each term is >= +0 in floating point: the
// enlarged box contains the child in every dimension, and each
// intersection width, their ordered sum and the subtraction are
// monotone. So the running sum never falls, and once it reaches the
// best total so far the child cannot win: a tie in overlap goes to the
// least (enlargement, margin, index), and the children are visited in
// that order, so the child chosen first holds the tie. Only the sums
// that can still win are finished, and each pair's overlap before
// enlargement is computed at most once. A margin that overflows (a
// side longer than math.MaxFloat64) or is infinite can make
// enlargements NaN, which compare false both ways, so the choice then
// depends on child order: the children are visited in child order and
// every sum is finished.
func (t *DynamicTree) chooseSubtree(n *Node, p []float64, subtree *Node) *Node {
	k := len(n.Children)
	cs := &t.cs
	cs.grow(k, t.Dim)
	cands := cs.cands[:k]
	lo, hi := p, p
	if subtree != nil {
		lo, hi = subtree.Rect.Lo, subtree.Rect.Hi
	}
	finite := true
	for i, c := range n.Children {
		cands[i] = cs.enlarge(i, c.Rect, lo, hi)
		// An enlargement is finite exactly when both margins are.
		finite = finite && cands[i].enlarge <= math.MaxFloat64
	}
	atLeafParent := n.Level == 2 && subtree == nil
	prune := atLeafParent && finite
	if atLeafParent {
		cs.forgetOverlaps(k)
	}
	if prune {
		slices.SortFunc(cands, compareCandidates)
	}
	best := -1
	var bestOverlap, bestEnlarge, bestArea float64
	for _, c := range cands {
		overlap := 0.0
		if atLeafParent {
			e := cs.enlarged[c.index]
			for j, o := range n.Children {
				if prune && best >= 0 && overlap >= bestOverlap {
					break
				}
				if j != c.index {
					overlap += overlapMargin(e, o.Rect) - cs.pairOverlap(n.Children, c.index, j)
				}
			}
		}
		if best < 0 || less3(overlap, c.enlarge, c.area, bestOverlap, bestEnlarge, bestArea) {
			best, bestOverlap, bestEnlarge, bestArea = c.index, overlap, c.enlarge, c.area
		}
	}
	return n.Children[best]
}

// chooser is the working memory of ChooseSubtree.
type chooser struct {
	enlarged []mbr.Rect // each child's rectangle grown by the new entry
	cands    []candidate
	// overlaps[i*k+j] is the overlap margin of children i and j before
	// enlargement, NaN until computed (overlapMargin is never NaN).
	overlaps []float64
}

// candidate holds a child's keys in ChooseSubtree after its overlap
// enlargement.
type candidate struct {
	enlarge, area float64
	index         int
}

// compareCandidates orders candidates by (enlargement, margin, index).
// Their keys are never NaN when it is used, so it agrees with less3.
func compareCandidates(a, b candidate) int {
	if c := cmp.Compare(a.enlarge, b.enlarge); c != 0 {
		return c
	}
	if c := cmp.Compare(a.area, b.area); c != 0 {
		return c
	}
	return cmp.Compare(a.index, b.index)
}

// grow sizes the scratch for k children of dimension dim.
func (cs *chooser) grow(k, dim int) {
	if len(cs.enlarged) < k {
		corners := make([]float64, 2*k*dim)
		cs.enlarged = make([]mbr.Rect, k)
		for i := range cs.enlarged {
			cs.enlarged[i] = mbr.Rect{Lo: corners[2*i*dim : (2*i+1)*dim], Hi: corners[(2*i+1)*dim : (2*i+2)*dim]}
		}
		cs.cands = make([]candidate, k)
	}
}

// enlarge sets cs.enlarged[i] to the bound of c and the box (lo, hi)
// and returns child i's candidate key. Both margins add their widths
// in ascending dimension order, as Rect.Margin does. For coordinates
// that are not NaN, min and max take the corners Rect.Extend and
// Rect.ExtendRect would, up to the sign of a zero, which neither a
// margin nor an overlap observes.
func (cs *chooser) enlarge(i int, c mbr.Rect, lo, hi []float64) candidate {
	e := cs.enlarged[i]
	var area, grown float64
	for d := range e.Lo {
		l, h := min(c.Lo[d], lo[d]), max(c.Hi[d], hi[d])
		e.Lo[d], e.Hi[d] = l, h
		area += c.Hi[d] - c.Lo[d]
		grown += h - l
	}
	return candidate{enlarge: grown - area, area: area, index: i}
}

// forgetOverlaps marks every pair's overlap of k children unknown.
func (cs *chooser) forgetOverlaps(k int) {
	if cap(cs.overlaps) < k*k {
		cs.overlaps = make([]float64, k*k)
	}
	nan := math.NaN()
	ov := cs.overlaps[:k*k]
	for i := range ov {
		ov[i] = nan
	}
}

// pairOverlap returns overlapMargin(children[i].Rect,
// children[j].Rect), computing it on first use. overlapMargin is
// symmetric bit for bit, so one computation serves both orders of the
// pair.
func (cs *chooser) pairOverlap(children []*Node, i, j int) float64 {
	k := len(children)
	if ov := cs.overlaps[i*k+j]; ov == ov {
		return ov
	}
	ov := overlapMargin(children[i].Rect, children[j].Rect)
	cs.overlaps[i*k+j], cs.overlaps[j*k+i] = ov, ov
	return ov
}

// less3 compares (overlap, enlargement, area) lexicographically.
func less3(o1, e1, a1, o2, e2, a2 float64) bool {
	if o1 != o2 {
		return o1 < o2
	}
	if e1 != e2 {
		return e1 < e2
	}
	return a1 < a2
}

// overlapMargin measures the intersection of two rectangles by margin
// (sum of intersection side lengths); high-dimensional volumes
// underflow to zero and stop discriminating, margins do not.
func overlapMargin(a, b mbr.Rect) float64 {
	var m float64
	for i := range a.Lo {
		lo := max(a.Lo[i], b.Lo[i])
		hi := min(a.Hi[i], b.Hi[i])
		if hi > lo {
			m += hi - lo
		}
	}
	return m
}

// split performs the topological R* split of an overflown node, keeps
// one group in n and returns the other as n's new sibling.
func (t *DynamicTree) split(n *Node) *Node {
	sib := &Node{Level: n.Level}
	boxes := t.sp.boxes[:0]
	if n.IsLeaf() {
		for _, p := range n.Points {
			boxes = append(boxes, mbr.Rect{Lo: p, Hi: p})
		}
		t.sp.boxes = boxes
		order, cut := t.sp.splitEntries(t.minLeaf, t.Dim)
		n.Points, sib.Points = partition(n.Points, order, cut)
	} else {
		for _, c := range n.Children {
			boxes = append(boxes, c.Rect)
		}
		t.sp.boxes = boxes
		order, cut := t.sp.splitEntries(t.minDir, t.Dim)
		n.Children, sib.Children = partition(n.Children, order, cut)
	}
	recomputeRect(n)
	recomputeRect(sib)
	return sib
}

// partition returns the split's two groups of entries, order[:cut]
// and order[cut:].
func partition[E any](entries []E, order []int, cut int) (left, right []E) {
	left = make([]E, cut)
	right = make([]E, len(order)-cut)
	for k, i := range order {
		if k < cut {
			left[k] = entries[i]
		} else {
			right[k-cut] = entries[i]
		}
	}
	return left, right
}

// splitter is the working memory of the R* split.
type splitter struct {
	boxes []mbr.Rect // the entries' boxes; a point is a degenerate box
	// lo and hi hold the entries' corners dimension-major: entry e's
	// corner in dimension d is lo[d*count+e].
	lo, hi      []float64
	order, best []int // entries sorted along the current and the best axis
	axis        axisOrder
	// preMargin[k] is the margin of the box bounding order[:k+1], and
	// sufMargin[k] that of the box bounding order[k:].
	preMargin, sufMargin []float64
	// pre[k] and suf[k] are those boxes along the best axis, so cut c
	// splits into pre[c-1] and suf[c]. Both are views into one array.
	pre, suf []mbr.Rect
}

// splitEntries chooses the R* split axis (minimum total margin over
// all candidate distributions) and distribution (minimum overlap, ties
// by minimum combined margin) of s.boxes. It returns the entries
// sorted along that axis and the cut between the two groups, order[:cut]
// and order[cut:]. The full R* algorithm additionally considers
// upper-bound sort orders for directory entries; this implementation
// uses the lower-bound order only, a standard simplification with
// negligible effect on point data.
func (s *splitter) splitEntries(minFill, dim int) (order []int, cut int) {
	count := len(s.boxes)
	s.grow(count, dim)
	for e, b := range s.boxes {
		for d := range b.Lo {
			s.lo[d*count+e], s.hi[d*count+e] = b.Lo[d], b.Hi[d]
		}
	}
	var bestAxisMargin float64
	for d := 0; d < dim; d++ {
		for i := range s.order {
			s.order[i] = i
		}
		s.axis = axisOrder{order: s.order, lo: s.lo[d*count : (d+1)*count]}
		sort.Sort(&s.axis)
		s.margins(minFill, dim)
		var marginSum float64
		for cut := minFill; cut <= count-minFill; cut++ {
			marginSum += s.preMargin[cut-1] + s.sufMargin[cut]
		}
		if d == 0 || marginSum < bestAxisMargin {
			bestAxisMargin = marginSum
			copy(s.best, s.order)
		}
	}
	s.sweep(s.best, minFill)
	bestCut, bestOverlap, bestMargin := -1, 0.0, 0.0
	for cut := minFill; cut <= count-minFill; cut++ {
		l, r := s.pre[cut-1], s.suf[cut]
		ov := overlapMargin(l, r)
		mg := l.Margin() + r.Margin()
		if bestCut < 0 || ov < bestOverlap || (ov == bestOverlap && mg < bestMargin) {
			bestCut, bestOverlap, bestMargin = cut, ov, mg
		}
	}
	return s.best, bestCut
}

// axisOrder sorts order by the entries' lower corners lo along one
// axis. sort.Sort runs the same pdqsort as sort.Slice, so it gives the
// same permutation, without sort.Slice's reflect swapper and escaping
// comparator: the splitter owns it, and sorting allocates nothing.
type axisOrder struct {
	order []int
	lo    []float64
}

func (a *axisOrder) Len() int           { return len(a.order) }
func (a *axisOrder) Less(i, j int) bool { return a.lo[a.order[i]] < a.lo[a.order[j]] }
func (a *axisOrder) Swap(i, j int)      { a.order[i], a.order[j] = a.order[j], a.order[i] }

// grow sizes the scratch for count entries.
func (s *splitter) grow(count, dim int) {
	if cap(s.order) < count {
		s.order, s.best = make([]int, count), make([]int, count)
		s.lo, s.hi = make([]float64, count*dim), make([]float64, count*dim)
		s.preMargin, s.sufMargin = make([]float64, count), make([]float64, count)
		corners := make([]float64, 4*count*dim)
		box := func(k int) mbr.Rect {
			return mbr.Rect{Lo: corners[2*k*dim : (2*k+1)*dim], Hi: corners[(2*k+1)*dim : (2*k+2)*dim]}
		}
		s.pre, s.suf = make([]mbr.Rect, count), make([]mbr.Rect, count)
		for k := range s.pre {
			s.pre[k], s.suf[k] = box(2*k), box(2*k+1)
		}
	}
	s.order, s.best = s.order[:count], s.best[:count]
	s.lo, s.hi = s.lo[:count*dim], s.hi[:count*dim]
}

// margins sets the margins of both groups of every cut of s.order
// without building their boxes. Dimension by dimension, one prefix
// pass and one suffix pass over the dimension-major corners track the
// group's extent and add its width to the cut's accumulator, so each
// margin adds its widths in ascending dimension order, as Rect.Margin
// does. For coordinates that are not NaN, min and max take the extent
// sweep's boxes have, up to the sign of a zero, which no width's
// contribution to a margin observes, so every margin has the bits
// sweep's boxes would give.
func (s *splitter) margins(minFill, dim int) {
	n, o := len(s.order), s.order
	pre, suf := s.preMargin[minFill-1:n-minFill], s.sufMargin[minFill:n-minFill+1]
	clear(pre)
	clear(suf)
	for d := 0; d < dim; d++ {
		lo, hi := s.lo[d*n:(d+1)*n], s.hi[d*n:(d+1)*n]
		l, h := lo[o[0]], hi[o[0]]
		for k := 0; k < n-minFill; k++ {
			l, h = min(l, lo[o[k]]), max(h, hi[o[k]])
			if k >= minFill-1 {
				s.preMargin[k] += h - l
			}
		}
		l, h = lo[o[n-1]], hi[o[n-1]]
		for k := n - 1; k >= minFill; k-- {
			l, h = min(l, lo[o[k]]), max(h, hi[o[k]])
			if k <= n-minFill {
				s.sufMargin[k] += h - l
			}
		}
	}
}

// sweep bounds the groups of every cut of order, in one prefix pass
// and one suffix pass over the entries. A prefix box grows exactly as
// a from-scratch bound of its group does. A suffix box takes the same
// minima and maxima in the reverse order, which for finite coordinates
// can change only the sign of a zero: no comparison, margin or overlap
// sum observes it, so every choice is the one a from-scratch bound
// would make.
func (s *splitter) sweep(order []int, minFill int) {
	n := len(order)
	setBox(s.pre[0], s.boxes[order[0]])
	for k := 1; k < n-minFill; k++ {
		setBox(s.pre[k], s.pre[k-1])
		s.pre[k].ExtendRect(s.boxes[order[k]])
	}
	setBox(s.suf[n-1], s.boxes[order[n-1]])
	for k := n - 2; k >= minFill; k-- {
		setBox(s.suf[k], s.suf[k+1])
		s.suf[k].ExtendRect(s.boxes[order[k]])
	}
}

// setBox copies src's corners into dst's storage.
func setBox(dst, src mbr.Rect) {
	copy(dst.Lo, src.Lo)
	copy(dst.Hi, src.Hi)
}

// AverageLeafOccupancy returns the mean points per leaf divided by the
// maximum leaf capacity — the storage utilization the paper's problem
// statement parameterizes predictions with.
func (t *DynamicTree) AverageLeafOccupancy() float64 {
	leaves := t.Leaves()
	if len(leaves) == 0 {
		return 0
	}
	total := 0
	for _, l := range leaves {
		total += len(l.Points)
	}
	return float64(total) / float64(len(leaves)) / float64(t.maxLeaf)
}
