// Package rtree implements the index substrate of the reproduction: a
// VAMSplit R*-tree built by the level-wise recursive bulk-loading
// algorithm of Berchtold et al. (EDBT 1998) with maximum-variance
// splits, as used by Lang & Singh (SIGMOD 2001). The same builder
// constructs the full index, the in-memory mini-indexes, the upper
// tree and the lower trees of the predictors — reusing the index's own
// bulk loader is the paper's central idea.
//
// The package also provides the topology calculator that the paper's
// full version derives: page capacities from the page geometry, the
// height, the number of nodes per level, and the subtree capacities
// pts(h)/capacity(...) that the h_upper bounds in Section 4.5 need.
package rtree

import (
	"fmt"
	"math"
)

// Geometry describes the page layout of the on-disk index. Data
// entries are float32 coordinates (4 bytes per dimension); directory
// entries hold an MBR (2 float32 corners) plus a 4-byte child
// reference. With the paper's 8 KB pages this yields the published
// TEXTURE60 anchors (34 points/page, height 5, ~8.6k leaves).
type Geometry struct {
	// Dim is the dimensionality of indexed points.
	Dim int
	// PageBytes is the index page size in bytes.
	PageBytes int
	// Utilization in (0, 1] scales the maximum capacities to the
	// effective capacities achieved by the bulk loader.
	Utilization float64
}

// DefaultUtilization is the effective/maximum capacity ratio assumed
// when Geometry.Utilization is zero.
const DefaultUtilization = 0.95

// NewGeometry returns a Geometry for the given dimensionality with the
// paper's default 8 KB pages and default utilization.
func NewGeometry(dim int) Geometry {
	return Geometry{Dim: dim, PageBytes: 8192, Utilization: DefaultUtilization}
}

func (g Geometry) utilization() float64 {
	if g.Utilization == 0 {
		return DefaultUtilization
	}
	return g.Utilization
}

// MaxDataCapacity returns C_max,data: the number of data points that
// fit in one index page, at least 1.
func (g Geometry) MaxDataCapacity() int {
	c := g.PageBytes / (4 * g.Dim)
	if c < 1 {
		c = 1
	}
	return c
}

// MaxDirCapacity returns C_max,dir: the number of directory entries
// (MBR plus child reference) that fit in one index page, at least 2.
func (g Geometry) MaxDirCapacity() int {
	c := g.PageBytes / (8*g.Dim + 4)
	if c < 2 {
		c = 2
	}
	return c
}

// EffDataCapacity returns C_eff,data, the effective data page
// capacity, at least 1.
func (g Geometry) EffDataCapacity() int {
	c := int(float64(g.MaxDataCapacity()) * g.utilization())
	if c < 1 {
		c = 1
	}
	return c
}

// EffDirCapacity returns C_eff,dir, the effective directory page
// capacity, at least 2.
func (g Geometry) EffDirCapacity() int {
	c := int(float64(g.MaxDirCapacity()) * g.utilization())
	if c < 2 {
		c = 2
	}
	return c
}

// Topology captures the derived structure of a bulk-loaded index on N
// points: the height and the number of nodes at each level. Levels are
// numbered as in the paper: leaves at level 1, root at level height.
type Topology struct {
	Geometry
	N      int
	Height int
	// nodes[l] is the number of nodes at level l, for l in [1, Height].
	nodes []int
}

// NewTopology derives the topology of a bulk-loaded index on n points.
func NewTopology(n int, g Geometry) Topology {
	if n <= 0 {
		panic(fmt.Sprintf("rtree: topology needs n > 0, got %d", n))
	}
	leafCap := g.EffDataCapacity()
	dirCap := g.EffDirCapacity()
	height := 1
	cap := float64(leafCap)
	for cap < float64(n) {
		cap *= float64(dirCap)
		height++
	}
	nodes := make([]int, height+1)
	count := ceilDiv(n, leafCap)
	nodes[1] = count
	for l := 2; l <= height; l++ {
		count = ceilDiv(count, dirCap)
		nodes[l] = count
	}
	return Topology{Geometry: g, N: n, Height: height, nodes: nodes}
}

// Leaves returns the number of leaf pages.
func (t Topology) Leaves() int { return t.nodes[1] }

// NodesAtLevel returns the number of nodes at the given level
// (leaves at 1, root at Height).
func (t Topology) NodesAtLevel(level int) int {
	if level < 1 || level > t.Height {
		panic(fmt.Sprintf("rtree: level %d outside [1, %d]", level, t.Height))
	}
	return t.nodes[level]
}

// SubtreeCapacity returns the maximum number of data points a subtree
// rooted at the given level can hold:
// C_eff,data * C_eff,dir^(level-1).
func (t Topology) SubtreeCapacity(level int) float64 {
	cap := float64(t.EffDataCapacity())
	for l := 2; l <= level; l++ {
		cap *= float64(t.EffDirCapacity())
	}
	return cap
}

// Pts returns pts(h), the average number of data points in a subtree
// whose root sits at height h (paper Section 4.2): pts(Height) = N and
// pts(1) = the average leaf occupancy.
func (t Topology) Pts(h int) float64 {
	return float64(t.N) / float64(t.NodesAtLevel(h))
}

// Capacity returns capacity(height, level, items): the average number
// of data points contained in a subtree starting at level level-1 when
// the tree's structure is that of the full index but only items points
// are stored in it. This is the quantity the paper's h_upper bounds in
// Section 4.5.1 constrain: the mini-index mirrors the full structure,
// so fewer items spread over the same node counts.
func (t Topology) Capacity(level int, items float64) float64 {
	return items / float64(t.NodesAtLevel(level-1))
}

// UpperLeafLevel returns the tree level at which the leaves of an
// upper tree of height hUpper sit: height - hUpper + 1.
func (t Topology) UpperLeafLevel(hUpper int) int {
	return t.Height - hUpper + 1
}

// HUpperBounds returns the valid range [min, max] for the upper tree
// height per Section 4.5.1, given the memory size M in points. The
// lower bound guarantees lower-tree leaf pages hold at least 2 points
// under the resampled scheme; the upper bound guarantees upper-tree
// leaf pages hold at least 2 points. For the cutoff scheme only the
// upper bound applies (pass needLower=false).
func (t Topology) HUpperBounds(m int, needLower bool) (min, max int, err error) {
	if t.Height < 2 {
		return 0, 0, fmt.Errorf("rtree: tree of height %d has no upper/lower split", t.Height)
	}
	min, max = 0, 0
	for h := 2; h <= t.Height-1; h++ {
		// Upper bound: a full-height tree on N*sigma_upper = M points
		// must store >= 2 points per node at the upper leaf level.
		sigmaUpper := math.Min(float64(m)/float64(t.N), 1)
		if t.Capacity(t.UpperLeafLevel(h)+1, float64(t.N)*sigmaUpper) >= 2 {
			max = h
		}
		if needLower {
			// Lower bound: with k upper leaves and sigma_lower =
			// min(k*M/N, 1), a full-height tree on N*sigma_lower points
			// must store >= 2 points per leaf.
			k := t.NodesAtLevel(t.UpperLeafLevel(h))
			sigmaLower := math.Min(float64(k*m)/float64(t.N), 1)
			if t.Capacity(2, float64(t.N)*sigmaLower) >= 2 && min == 0 {
				min = h
			}
		}
	}
	if !needLower {
		min = 2
	}
	if min == 0 || max == 0 || min > max {
		return 0, 0, fmt.Errorf("rtree: no valid h_upper for N=%d, M=%d (bounds %d..%d)", t.N, m, min, max)
	}
	return min, max, nil
}

// ChooseHUpper implements the paper's Section 4.5.2 heuristic: choose
// the h_upper within the valid bounds whose unsampled lower-tree size
// is closest to M (ideally sigma_lower reaching 1).
func (t Topology) ChooseHUpper(m int, needLower bool) (int, error) {
	min, max, err := t.HUpperBounds(m, needLower)
	if err != nil {
		return 0, err
	}
	best, bestScore := min, math.Inf(1)
	for h := min; h <= max; h++ {
		size := t.SubtreeCapacity(t.UpperLeafLevel(h))
		// Distance in log space between the unsampled lower tree size
		// and the memory size.
		score := math.Abs(math.Log(size / float64(m)))
		if score < bestScore {
			best, bestScore = h, score
		}
	}
	return best, nil
}

func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}
