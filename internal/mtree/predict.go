package mtree

import (
	"fmt"
	"math/rand"

	"hdidx/internal/dataset"
	"hdidx/internal/par"
	"hdidx/internal/query"
	"hdidx/internal/sstree"
)

// Sampling-based prediction for the M-tree, completing the Section 4.7
// instantiations: the mini M-tree is built with the index's own bulk
// loader on a sample with the leaf capacity scaled by the sampling
// fraction, and its covering radii are grown by the ball-shrinkage
// compensation factor shared with the SS-tree (the within-page model
// is the same: points distributed in a ball around the routing
// object).

// Geometry describes the M-tree page layout: points as float32
// coordinates; directory entries hold a pivot, a radius, and a child
// reference.
type Geometry = sstree.Geometry

// NewGeometry returns the default 8 KB-page geometry (entry layout
// identical to the SS-tree's: pivot + radius + reference).
func NewGeometry(dim int) Geometry { return sstree.NewGeometry(dim) }

// Params returns the full-index build parameters under g.
func Params(g Geometry) BuildParams {
	return BuildParams{
		LeafCap: float64(g.EffDataCapacity()),
		DirCap:  float64(g.EffDirCapacity()),
	}
}

// Prediction is the outcome of an M-tree access prediction.
type Prediction struct {
	PerQuery []float64
	Mean     float64
	// LeafBalls is the predicted leaf page layout.
	LeafBalls []*Node
}

// Predict applies the basic sampling model to the M-tree under the
// given metric (nil = Euclidean).
func Predict(data [][]float64, zeta float64, compensate bool, g Geometry, dist DistFunc, spheres []query.Sphere, rng *rand.Rand) (Prediction, error) {
	if len(data) == 0 {
		return Prediction{}, fmt.Errorf("mtree: empty dataset")
	}
	if zeta <= 0 || zeta > 1 {
		return Prediction{}, fmt.Errorf("mtree: sample fraction %g outside (0, 1]", zeta)
	}
	capacity := float64(g.EffDataCapacity())
	if zeta < 1/capacity {
		return Prediction{}, fmt.Errorf("mtree: sample fraction %g below the 1/C limit %g", zeta, 1/capacity)
	}
	params := Params(g)
	params.Dist = dist
	params.Seed = rng.Int63()
	fullHeight := params.DeriveHeight(len(data))
	m := int(float64(len(data))*zeta + 0.5)
	if m < 1 {
		m = 1
	}
	sample := dataset.SampleExact(data, m, rng)
	mini := Build(sample, params.Scaled(zeta, fullHeight))

	grow := 1.0
	if compensate {
		grow = sstree.SphereCompensationFactor(capacity, zeta, len(data[0]))
	}
	d := params.dist()
	leaves := make([]*Node, mini.NumLeaves())
	for i, l := range mini.Leaves() {
		leaves[i] = &Node{Level: 1, Pivot: l.Pivot, Radius: l.Radius * grow}
	}
	p := Prediction{LeafBalls: leaves, PerQuery: make([]float64, len(spheres))}
	var sum float64
	for i, s := range spheres {
		n := 0
		for _, l := range leaves {
			if d(s.Center, l.Pivot) <= s.Radius+l.Radius {
				n++
			}
		}
		p.PerQuery[i] = float64(n)
		sum += float64(n)
	}
	if len(spheres) > 0 {
		p.Mean = sum / float64(len(spheres))
	}
	return p, nil
}

// MeasureLeafAccesses counts, per query ball, the leaf covering balls
// intersecting it.
func MeasureLeafAccesses(t *Tree, spheres []query.Sphere) []float64 {
	out := make([]float64, len(spheres))
	par.For(len(spheres), func(i int) {
		n := 0
		for _, l := range t.Leaves() {
			if t.Dist(spheres[i].Center, l.Pivot) <= spheres[i].Radius+l.Radius {
				n++
			}
		}
		out[i] = float64(n)
	})
	return out
}
