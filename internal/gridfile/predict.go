package gridfile

import (
	"fmt"
	"math/rand"

	"hdidx/internal/dataset"
	"hdidx/internal/mbr"
	"hdidx/internal/query"
	"hdidx/internal/stats"
)

// Sampling-based prediction for the grid file (Section 4.7). Grid file
// pages are regions of a *space* partition, so unlike R-tree pages
// they do not shrink under sampling and need no geometric compensation
// factor. They have the opposite problem instead: a query also touches
// *sparsely occupied* cells, and a sample systematically misses cells
// holding only a few points — a distinct-values (coupon-collector)
// effect directly related to the sampling limits of Charikar et al.,
// the paper's reference [9]. The predictor therefore splits the two
// concerns: the cell lattice (the scales) comes from the sample via
// the structure's own build algorithm with the capacity scaled by
// zeta, while cell *occupancy* comes from one streaming pass over the
// dataset — the same full scan the paper's predictors already perform
// to determine query radii.

// Prediction is the outcome of a grid file access prediction.
type Prediction struct {
	PerQuery []float64
	Mean     float64
	// Buckets is the number of predicted data pages.
	Buckets int
}

// Predict builds a mini grid file lattice on a sample, marks the cells
// occupied by the (streamed) dataset, and counts query-sphere
// intersections with the occupied cell regions.
func Predict(data [][]float64, zeta float64, capacity int, spheres []query.Sphere, rng *rand.Rand) (Prediction, error) {
	if len(data) == 0 {
		return Prediction{}, fmt.Errorf("gridfile: empty dataset")
	}
	if zeta <= 0 || zeta > 1 {
		return Prediction{}, fmt.Errorf("gridfile: sample fraction %g outside (0, 1]", zeta)
	}
	scaledCap := int(float64(capacity)*zeta + 0.5)
	if scaledCap < 1 {
		return Prediction{}, fmt.Errorf("gridfile: sample fraction %g below the 1/C limit", zeta)
	}
	m := int(float64(len(data))*zeta + 0.5)
	if m < 1 {
		m = 1
	}
	sample := dataset.SampleExact(data, m, rng)
	mini, err := Build(sample, scaledCap)
	if err != nil {
		return Prediction{}, err
	}
	// Occupancy pass: which mini-lattice cells does the full dataset
	// touch?
	occupied := make(map[string]mbr.Rect)
	for _, p := range data {
		key, _ := mini.cellOf(p)
		if _, ok := occupied[key]; !ok {
			occupied[key] = mini.cellRegion(p)
		}
	}
	regions := make([]mbr.Rect, 0, len(occupied))
	for _, r := range occupied {
		regions = append(regions, r)
	}
	perQuery := query.MeasureLeafAccessesSet(mbr.NewRectSet(regions), spheres)
	return Prediction{PerQuery: perQuery, Mean: stats.Mean(perQuery), Buckets: len(regions)}, nil
}

// MeasureLeafAccesses counts, per query sphere, the occupied buckets
// whose region intersects it.
func MeasureLeafAccesses(g *GridFile, spheres []query.Sphere) []float64 {
	return query.MeasureLeafAccessesSet(mbr.NewRectSet(g.Regions()), spheres)
}
