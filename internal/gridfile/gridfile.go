// Package gridfile implements a simplified grid file (Nievergelt,
// Hinterberger & Sevcik, TODS 1984): a space-partitioning structure
// with global linear scales per dimension and fixed-capacity buckets.
// Section 4.7 lists the grid file among the structures the paper's
// sampling technique covers; this package instantiates that claim and
// exposes an instructive contrast to the R-tree family: grid file page
// regions are *space* partitions, not minimal bounding boxes, so they
// do not shrink under sampling and the prediction needs no
// compensation factor at all.
//
// Grid files are practical only at low to moderate dimensionality (the
// directory grows with the product of scale sizes); the tests and the
// experiment use <= 8 dimensions, mirroring the regime the original
// paper proposed them for.
package gridfile

import (
	"fmt"
	"math"
	"sort"

	"hdidx/internal/mbr"
	"hdidx/internal/query"
	"hdidx/internal/vec"
)

// GridFile is a bulk-loaded grid file over a fixed point set.
type GridFile struct {
	// Capacity is the maximum bucket occupancy.
	Capacity int
	// Bounds is the data space covered by the scales.
	Bounds mbr.Rect
	// Scales[d] holds the interior split coordinates of dimension d,
	// sorted ascending.
	Scales [][]float64

	buckets   map[string]*Bucket
	dim       int
	numPoints int
}

// Bucket is one data page: the points of one occupied grid cell.
type Bucket struct {
	// Region is the cell's region of space (not a minimal bounding
	// box).
	Region mbr.Rect
	Points [][]float64
}

// Build bulk-loads a grid file: starting from a single cell covering
// the data's bounding box, the fullest bucket is repeatedly split by a
// global scale entry on its maximum-variance dimension (at the median
// of its points) until every bucket fits the capacity. It fails when
// neither the median nor the midpoint of an over-full bucket's spread
// is a new scale, since no later pass would split that bucket either.
func Build(pts [][]float64, capacity int) (*GridFile, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("gridfile: no points")
	}
	if capacity < 1 {
		return nil, fmt.Errorf("gridfile: capacity %d < 1", capacity)
	}
	dim := len(pts[0])
	g := &GridFile{
		Capacity:  capacity,
		Bounds:    mbr.Bound(pts),
		Scales:    make([][]float64, dim),
		dim:       dim,
		numPoints: len(pts),
	}
	// Iterate: bucket all points under the current global scales, pick
	// one over-full bucket, split it with a new global scale at the
	// median of its own points, and re-bucket. A fresh global plane
	// also thins every other bucket it crosses, so re-bucketing after
	// each split — rather than recursing locally — is what keeps the
	// directory from shattering: grid files degenerate quickly on
	// clustered data if splits ignore the planes already present.
	for iter := 0; iter <= 2*len(pts); iter++ {
		g.rebucket(pts)
		// Deterministic victim selection: largest over-full bucket,
		// ties broken by cell key (map iteration order must not leak
		// into the structure).
		var victim *Bucket
		victimKey := ""
		for key, b := range g.buckets {
			if len(b.Points) <= capacity || allEqual(b.Points) {
				continue
			}
			if victim == nil || len(b.Points) > len(victim.Points) ||
				(len(b.Points) == len(victim.Points) && key < victimKey) {
				victim, victimKey = b, key
			}
		}
		if victim == nil {
			break
		}
		d := vec.MaxVarianceDim(victim.Points)
		vec.SelectByDim(victim.Points, d, len(victim.Points)/2)
		if g.addScale(d, victim.Points[len(victim.Points)/2][d]) {
			continue
		}
		// Median coincided with an existing scale or the bounds: split
		// at the midpoint of the bucket's spread instead, which lies
		// strictly inside the bucket's region unless no float64 lies
		// between the spread's ends. Then no split makes progress, and
		// rebucketing 2n more times would not either. Ends whose sum
		// overflows are halved before they are added.
		d = g.fallbackDim(victim.Points)
		lo, hi := vec.MinMax(victim.Points)
		mid := (lo[d] + hi[d]) / 2
		if math.IsInf(mid, 0) {
			mid = lo[d]/2 + hi[d]/2
		}
		if !g.addScale(d, mid) {
			return nil, fmt.Errorf("gridfile: cannot split a bucket of %d points: the midpoint %v of dimension %d's spread [%v, %v] is no new scale",
				len(victim.Points), mid, d, lo[d], hi[d])
		}
	}
	return g, nil
}

// rebucket assigns every point to its cell under the current scales.
func (g *GridFile) rebucket(pts [][]float64) {
	g.buckets = make(map[string]*Bucket)
	for _, p := range pts {
		key, _ := g.cellOf(p)
		b := g.buckets[key]
		if b == nil {
			b = &Bucket{Region: g.cellRegion(p)}
			g.buckets[key] = b
		}
		b.Points = append(b.Points, p)
	}
}

// addScale inserts a split coordinate into dimension d's scale,
// reporting false when it already exists or is outside the bounds.
func (g *GridFile) addScale(d int, x float64) bool {
	if x <= g.Bounds.Lo[d] || x >= g.Bounds.Hi[d] {
		return false
	}
	s := g.Scales[d]
	i := sort.SearchFloat64s(s, x)
	if i < len(s) && s[i] == x {
		return false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	g.Scales[d] = s
	return true
}

func (g *GridFile) fallbackDim(bucket [][]float64) int {
	lo, hi := vec.MinMax(bucket)
	for d := 0; d < g.dim; d++ {
		if hi[d] > lo[d] {
			return d
		}
	}
	return -1
}

// cellOf returns the cell key and index vector of p.
func (g *GridFile) cellOf(p []float64) (string, []int) {
	idx := make([]int, g.dim)
	key := make([]byte, 0, g.dim*2)
	for d := 0; d < g.dim; d++ {
		i := sort.SearchFloat64s(g.Scales[d], p[d])
		// SearchFloat64s returns the first scale >= p; points exactly
		// on a scale belong to the right cell (consistent with the
		// split predicate p[d] < split).
		if i < len(g.Scales[d]) && g.Scales[d][i] == p[d] {
			i++
		}
		idx[d] = i
		key = append(key, byte(i), byte(i>>8))
	}
	return string(key), idx
}

// cellRegion returns the region of the cell containing p. Boundary
// cells extend to infinity: the grid file partitions the whole space,
// and keeping the outer cells unbounded makes a mini grid file built
// on a sample (whose bounding box is smaller than the full data's)
// directly comparable to the full one.
func (g *GridFile) cellRegion(p []float64) mbr.Rect {
	lo := make([]float64, g.dim)
	hi := make([]float64, g.dim)
	for d := 0; d < g.dim; d++ {
		s := g.Scales[d]
		i := sort.SearchFloat64s(s, p[d])
		if i < len(s) && s[i] == p[d] {
			i++
		}
		if i == 0 {
			lo[d] = math.Inf(-1)
		} else {
			lo[d] = s[i-1]
		}
		if i == len(s) {
			hi[d] = math.Inf(1)
		} else {
			hi[d] = s[i]
		}
	}
	return mbr.FromCorners(lo, hi)
}

// Regions returns the regions of all occupied buckets.
func (g *GridFile) Regions() []mbr.Rect {
	out := make([]mbr.Rect, 0, len(g.buckets))
	for _, b := range g.buckets {
		out = append(out, b.Region.Clone())
	}
	return out
}

// Validate checks the grid file's invariants: every point lies in its
// bucket's region, occupied buckets respect the capacity unless all
// their points coincide, and regions are disjoint.
func (g *GridFile) Validate() error {
	total := 0
	for _, b := range g.buckets {
		total += len(b.Points)
		for _, p := range b.Points {
			if !b.Region.Contains(p) {
				return fmt.Errorf("gridfile: point outside its cell region")
			}
		}
		if len(b.Points) > g.Capacity && !allEqual(b.Points) {
			return fmt.Errorf("gridfile: bucket with %d > %d distinct points", len(b.Points), g.Capacity)
		}
	}
	if total != g.numPoints {
		return fmt.Errorf("gridfile: %d points bucketed, want %d", total, g.numPoints)
	}
	return nil
}

func allEqual(pts [][]float64) bool {
	for _, p := range pts[1:] {
		for j := range p {
			if p[j] != pts[0][j] {
				return false
			}
		}
	}
	return true
}

// KNNResult reports a grid file k-NN search.
type KNNResult struct {
	Radius         float64
	BucketAccesses int
}

// KNNSearch runs a best-first k-NN search over the occupied buckets.
func (g *GridFile) KNNSearch(q []float64, k int) KNNResult {
	if k <= 0 || k > g.numPoints {
		panic(fmt.Sprintf("gridfile: k = %d outside [1, %d]", k, g.numPoints))
	}
	type entry struct {
		b    *Bucket
		dist float64
	}
	entries := make([]entry, 0, len(g.buckets))
	for _, b := range g.buckets {
		entries = append(entries, entry{b: b, dist: b.Region.MinSqDist(q)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].dist < entries[j].dist })
	best := query.NewBoundedMaxHeap(k)
	res := KNNResult{}
	for _, e := range entries {
		if e.dist > best.Max() {
			break
		}
		res.BucketAccesses++
		for _, p := range e.b.Points {
			best.Offer(vec.SqDist(p, q))
		}
	}
	res.Radius = math.Sqrt(best.Max())
	return res
}
