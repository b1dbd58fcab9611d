package balltree

import (
	"fmt"
	"math/rand"

	"hdidx/internal/dataset"
	"hdidx/internal/mbr"
	"hdidx/internal/query"
	"hdidx/internal/stats"
)

// Geometry describes the page layout: points as float32 coordinates;
// a directory entry holds a ball (center and radius) and a child
// reference, and in an SR-tree also a rectangle, the SR-tree's known
// cost of fatter directory entries.
type Geometry struct {
	Dim         int
	PageBytes   int
	Utilization float64
}

// NewGeometry returns the default 8 KB-page geometry.
func NewGeometry(dim int) Geometry {
	return Geometry{Dim: dim, PageBytes: 8192, Utilization: 0.95}
}

// EffDataCapacity returns the effective data page capacity.
func (g Geometry) EffDataCapacity() int {
	c := int(float64(g.PageBytes/(4*g.Dim)) * g.Utilization)
	if c < 1 {
		c = 1
	}
	return c
}

// EffDirCapacity returns the effective directory page capacity of a
// tree of kind k.
func (g Geometry) EffDirCapacity(k Kind) int {
	entry := 4*g.Dim + 8 // center, radius and reference
	if k == SR {
		entry += 8 * g.Dim // the rectangle's two corners
	}
	c := int(float64(g.PageBytes/entry) * g.Utilization)
	if c < 2 {
		c = 2
	}
	return c
}

// Params returns the full-index build parameters of a tree of kind k
// under g.
func (g Geometry) Params(k Kind) BuildParams {
	return BuildParams{LeafCap: float64(g.EffDataCapacity()), DirCap: float64(g.EffDirCapacity(k))}
}

// Prediction is the outcome of an access prediction.
type Prediction struct {
	PerQuery []float64
	Mean     float64
}

// Predict applies the basic sampling model to a tree of kind k under
// the Euclidean metric: build a structurally similar mini tree with
// the structure's own loader on a zeta-fraction sample, with the leaf
// capacity scaled by zeta and the full tree's height; grow each leaf
// ball by the sphere compensation factor and, in an SR-tree, each leaf
// rectangle by the Theorem 1 side factor (the two compose because the
// page region is their intersection); count query-ball intersections.
func Predict(k Kind, data [][]float64, zeta float64, compensate bool, g Geometry, spheres []query.Sphere, rng *rand.Rand) (Prediction, error) {
	if len(data) == 0 {
		return Prediction{}, fmt.Errorf("balltree: empty dataset")
	}
	if zeta <= 0 || zeta > 1 {
		return Prediction{}, fmt.Errorf("balltree: sample fraction %g outside (0, 1]", zeta)
	}
	capacity := float64(g.EffDataCapacity())
	if zeta < 1/capacity {
		return Prediction{}, fmt.Errorf("balltree: sample fraction %g below the 1/C limit %g", zeta, 1/capacity)
	}
	params := g.Params(k)
	var seed int64
	if k == M {
		seed = rng.Int63() // the pivot seed is drawn before the sample
	}
	m := int(float64(len(data))*zeta + 0.5)
	if m < 1 {
		m = 1
	}
	sample := dataset.SampleExact(data, m, rng)
	mini := Build(k, sample, params.Scaled(zeta, params.DeriveHeight(len(data))), seed)

	rectGrow, ballGrow := 1.0, 1.0
	if compensate {
		if k == SR && capacity*zeta > 1+1e-9 && capacity > 1 && zeta < 1 {
			rectGrow = mbr.CompensationSideFactor(capacity, zeta)
		}
		ballGrow = SphereCompensationFactor(capacity, zeta, len(data[0]))
	}
	leaves := make([]*Node, len(mini.Leaves()))
	for i, l := range mini.Leaves() {
		leaves[i] = &Node{Level: 1, Center: l.Center, Radius: l.Radius * ballGrow}
		if k == SR {
			// Grown even by a factor of 1, which in floating point is
			// not always the identity.
			leaves[i].Rect = l.Rect.GrowCentered(rectGrow)
		}
	}
	perQuery := mini.leafHits(leaves, spheres)
	return Prediction{PerQuery: perQuery, Mean: stats.Mean(perQuery)}, nil
}

// SphereCompensationFactor is the sphere analogue of Theorem 1: for C
// points distributed uniformly in a d-dimensional ball of radius R,
// the distance of a point from the center has CDF (r/R)^d, so the
// expected radius of the minimal bounding sphere of n such points
// (centered at the true center) is
//
//	E[max_i r_i] = R * n*d / (n*d + 1).
//
// Reducing the page occupancy from C to C*zeta therefore shrinks the
// expected leaf sphere radius by (C*zeta*d/(C*zeta*d+1)) /
// (C*d/(C*d+1)); the compensation factor is the reciprocal:
//
//	factor = (C*d/(C*d+1)) * ((C*zeta*d + 1)/(C*zeta*d)).
//
// Like Theorem 1 it is exact only under within-page uniformity, and it
// approaches 1 as zeta -> 1. In high dimensions n*d is large and the
// factor is close to 1 — bounding spheres shrink far less under
// sampling than bounding boxes, because the max of n draws from a
// sharply concentrated distance distribution is stable. The M-tree
// uses the same factor: its within-page model is the same, points in a
// ball around the routing object.
func SphereCompensationFactor(capacity, zeta float64, d int) float64 {
	if capacity <= 1 || zeta <= 0 || zeta > 1 || d < 1 {
		return 1
	}
	cd := capacity * float64(d)
	czd := capacity * zeta * float64(d)
	if czd <= 0 {
		return 1
	}
	return (cd / (cd + 1)) * ((czd + 1) / czd)
}
