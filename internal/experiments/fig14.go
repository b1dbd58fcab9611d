package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/par"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
	"hdidx/internal/stats"
)

// Fig14Row is one indexed dimensionality of the experiment of Section
// 6.2: index on a dimension prefix plus an object server for the rest,
// queried with the optimal multi-step k-NN of Seidl & Kriegel.
type Fig14Row struct {
	IndexDims int
	// Measured / Predicted are index leaf-page accesses per query.
	Measured  float64
	Predicted float64
	// MeasuredObjects / PredictedObjects are object-server fetches per
	// query (the second access type Section 6.2 mentions).
	MeasuredObjects  float64
	PredictedObjects float64
}

// Fig14Result reproduces Figure 14: index page accesses for 21-NN
// queries versus the number of dimensions stored in the index.
type Fig14Result struct {
	Dataset string
	Rows    []Fig14Row
}

// Fig14 sweeps the number of leading dimensions stored in the index.
// The data is KLT-ordered (leading dimensions carry the most
// variance), so a prefix index is the natural reduced-dimension index.
// Measurement runs the optimal multi-step algorithm; its index page
// accesses equal the pages whose projected MBR intersects the
// full-space k-NN sphere (a tested identity), which is what the
// sampling model predicts. Object accesses are predicted by scaling
// the sample's within-radius candidate counts.
func Fig14(opt Options, dims []int) (Fig14Result, error) {
	opt = opt.withDefaults()
	spec := dataset.Texture60
	scaled := spec
	if opt.Scale != 1 {
		scaled = spec.Scaled(opt.Scale)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	data := scaled.Generate(rng).Points
	fullDim := len(data[0])
	if len(dims) == 0 {
		dims = []int{10, 20, 30, 40, 50, fullDim}
	}
	k := opt.K
	if k > len(data) {
		k = len(data)
	}
	queryPoints := make([][]float64, opt.Queries)
	for i := range queryPoints {
		queryPoints[i] = data[rng.Intn(len(data))]
	}
	fullSpheres := query.ComputeSpheres(data, queryPoints, k)

	for _, d := range dims {
		if d < 1 || d > fullDim {
			return Fig14Result{}, fmt.Errorf("fig14: dimensionality %d outside [1, %d]", d, fullDim)
		}
	}
	// Each indexed dimensionality is an independent projection, build,
	// and prediction; the rows run as pool tasks over the shared data
	// and full-space spheres.
	res := Fig14Result{Dataset: scaled.Name, Rows: make([]Fig14Row, len(dims))}
	err := runTasks(len(dims), func(i int) error {
		d := dims[i]
		proj, project, lookup := query.PrefixProjector(data, d)
		spheres := make([]query.Sphere, len(fullSpheres))
		for i, s := range fullSpheres {
			spheres[i] = query.Sphere{Center: project(s.Center), Radius: s.Radius}
		}
		g := rtree.NewGeometry(d)

		// Measured: the optimal multi-step search on a full index over
		// the projection.
		cp := make([][]float64, len(proj))
		copy(cp, proj)
		tree := rtree.Build(cp, rtree.ParamsForGeometry(g))
		leafAcc := make([]float64, len(queryPoints))
		objAcc := make([]float64, len(queryPoints))
		par.For(len(queryPoints), func(i int) {
			r := query.MultiStepKNN(tree, queryPoints[i], k, project, lookup)
			leafAcc[i] = float64(r.IndexLeafAccesses)
			objAcc[i] = float64(r.ObjectAccesses)
		})
		measured := stats.Mean(leafAcc)
		measuredObjects := stats.Mean(objAcc)

		// Predicted: the basic sampling model on the projected data
		// with the full-space radii; object accesses from the sample's
		// within-radius candidate counts.
		zeta := basicZeta(opt.M, len(proj), g)
		sampleRng := rand.New(rand.NewSource(opt.Seed + int64(d)))
		p, err := core.PredictBasic(proj, zeta, true, g, spheres, sampleRng, par.Pool{}, nil)
		if err != nil {
			return fmt.Errorf("fig14 dim=%d: %w", d, err)
		}
		sample := dataset.SampleExact(proj, int(float64(len(proj))*zeta+0.5),
			rand.New(rand.NewSource(opt.Seed+int64(d))))
		predictedObjects := predictObjectAccesses(sample, spheres, zeta)

		res.Rows[i] = Fig14Row{
			IndexDims:        d,
			Measured:         measured,
			Predicted:        p.Mean,
			MeasuredObjects:  measuredObjects,
			PredictedObjects: predictedObjects,
		}
		return nil
	})
	if err != nil {
		return Fig14Result{}, err
	}
	return res, nil
}

// predictObjectAccesses estimates the object-server fetches of the
// optimal multi-step search: the number of dataset points whose
// projected distance is within the query radius, extrapolated from the
// sample.
func predictObjectAccesses(sample [][]float64, spheres []query.Sphere, zeta float64) float64 {
	total := make([]float64, len(spheres))
	par.For(len(spheres), func(i int) {
		s := spheres[i]
		r2 := s.Radius * s.Radius
		n := 0
		for _, p := range sample {
			var d float64
			for j, v := range p {
				diff := v - s.Center[j]
				d += diff * diff
			}
			if d <= r2 {
				n++
			}
		}
		total[i] = float64(n) / zeta
	})
	var sum float64
	for _, v := range total {
		sum += v
	}
	if math.IsNaN(sum) {
		return 0
	}
	return sum / float64(len(spheres))
}

// String renders the dimensionality curve.
func (r Fig14Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14 — index page accesses vs. indexed dimensionality (%s)\n", r.Dataset)
	fmt.Fprintf(&b, "%10s %12s %12s %12s %12s\n",
		"index dims", "meas.pages", "pred.pages", "meas.objs", "pred.objs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %12.1f %12.1f %12.1f %12.1f\n",
			row.IndexDims, row.Measured, row.Predicted, row.MeasuredObjects, row.PredictedObjects)
	}
	return b.String()
}
