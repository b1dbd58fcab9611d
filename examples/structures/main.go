// Index-structure generality (the Section 4.7 claim): the same
// sampling recipe — rebuild the structure's own bulk loader on a
// sample, compensate the page geometry for shrinkage, count
// query-region intersections — predicts page accesses for the
// VAMSplit R*-tree, the SS-tree, and the grid file.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hdidx/internal/balltree"
	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/gridfile"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
	"hdidx/internal/stats"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	spec := dataset.Spec{Name: "demo", N: 30000, Dim: 12, Clusters: 16, VarianceDecay: 0.9, ClusterStd: 0.1}
	data := spec.Generate(rng).Points
	queryPoints := make([][]float64, 100)
	for i := range queryPoints {
		queryPoints[i] = data[rng.Intn(len(data))]
	}
	spheres := query.ComputeSpheres(data, queryPoints, 21)
	const zeta = 0.2
	fmt.Printf("dataset: %d points, %d dims; 100 21-NN queries; 20%% sample\n\n", len(data), len(data[0]))
	fmt.Printf("%-18s %10s %10s %9s   %s\n", "structure", "measured", "predicted", "rel.err", "compensation")

	// R*-tree: Theorem 1 box compensation.
	g := rtree.NewGeometry(len(data[0]))
	cp := make([][]float64, len(data))
	copy(cp, data)
	rt := rtree.Build(cp, rtree.ParamsForGeometry(g))
	rtMeas := stats.Mean(query.MeasureLeafAccesses(rt, spheres))
	rtPred, err := core.PredictBasic(data, zeta, true, g, spheres, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		log.Fatal(err)
	}
	row("VAMSplit R*-tree", rtMeas, rtPred.Mean, "Theorem 1 (boxes)")

	// SS-tree: balls around the R*-tree's own pages, sphere-analogue
	// compensation.
	sg := balltree.NewGeometry(len(data[0]))
	cp2 := make([][]float64, len(data))
	copy(cp2, data)
	st := balltree.Build(balltree.SS, cp2, sg.Params(balltree.SS), 0)
	ssMeas := stats.Mean(balltree.MeasureLeafAccesses(st, spheres))
	ssPred, err := balltree.Predict(balltree.SS, data, zeta, true, sg, spheres, rand.New(rand.NewSource(2)))
	if err != nil {
		log.Fatal(err)
	}
	row("SS-tree", ssMeas, ssPred.Mean, "ball analogue")

	// Grid file (leading 6 dims): no compensation needed.
	proj := make([][]float64, len(data))
	for i, p := range data {
		proj[i] = p[:6]
	}
	gfSpheres := make([]query.Sphere, len(spheres))
	for i, s := range spheres {
		gfSpheres[i] = query.Sphere{Center: s.Center[:6], Radius: s.Radius}
	}
	gf, err := gridfile.Build(proj, 128)
	if err != nil {
		log.Fatal(err)
	}
	gfMeas := stats.Mean(gridfile.MeasureLeafAccesses(gf, gfSpheres))
	gfPred, err := gridfile.Predict(proj, zeta, 128, gfSpheres, rand.New(rand.NewSource(3)))
	if err != nil {
		log.Fatal(err)
	}
	row("Grid file (6-d)", gfMeas, gfPred.Mean, "occupancy pass (no geometry factor)")
}

func row(name string, measured, predicted float64, comp string) {
	fmt.Printf("%-18s %10.1f %10.1f %+8.1f%%   %s\n",
		name, measured, predicted, (predicted-measured)/measured*100, comp)
}
