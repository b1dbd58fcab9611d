// Package dataset provides the data substrate for the reproduction:
// synthetic generators standing in for the paper's five real datasets,
// a discrete Fourier transform for the time-series stand-in, and the
// sampling primitives the predictors build on.
//
// The paper's datasets (Table 1) are not redistributable, so each has a
// synthetic stand-in with the same cardinality and dimensionality and
// the property the paper's argument rests on: strong cluster structure
// with rapidly decaying per-dimension variance, as a KLT produces. The
// clustered generators draw that decay directly, so no KLT runs: their
// output already looks KLT-transformed.
package dataset

import (
	"fmt"
	"math/rand"
)

// Dataset is an in-memory point collection of fixed dimensionality.
type Dataset struct {
	Name   string
	Points [][]float64
}

// N returns the number of points.
func (d *Dataset) N() int { return len(d.Points) }

// Dim returns the dimensionality, or 0 for an empty dataset.
func (d *Dataset) Dim() int {
	if len(d.Points) == 0 {
		return 0
	}
	return len(d.Points[0])
}

// Validate checks the dataset's structural invariants.
func (d *Dataset) Validate() error {
	dim := d.Dim()
	for i, p := range d.Points {
		if len(p) != dim {
			return fmt.Errorf("dataset %q: point %d has dimension %d, want %d", d.Name, i, len(p), dim)
		}
	}
	return nil
}

// Spec describes a synthetic dataset to generate. The five stand-ins
// for the paper's Table 1 are exposed as ready-made Specs below.
type Spec struct {
	// Name identifies the dataset in reports.
	Name string
	// N is the number of points.
	N int
	// Dim is the dimensionality.
	Dim int
	// Clusters is the number of Gaussian clusters; 0 means uniform.
	Clusters int
	// VarianceDecay in (0, 1] scales the per-dimension standard
	// deviation geometrically (KLT-like eigenvalue decay). 1 keeps
	// all dimensions equally spread.
	VarianceDecay float64
	// ClusterStd is the standard deviation of the widest dimension of
	// each cluster.
	ClusterStd float64
	// TimeSeries generates random-walk series DFT-transformed per
	// point (the STOCK360 construction) instead of Gaussian clusters.
	TimeSeries bool
}

// The paper's Table 1 datasets, as synthetic stand-ins. Cardinalities
// and dimensionalities match the paper exactly; the content is
// clustered Gaussian (KLT-like) or DFT-transformed random walks.
var (
	// Color64 stands in for COLOR64: 112,361 64-d color histograms (KLT).
	Color64 = Spec{Name: "COLOR64", N: 112361, Dim: 64, Clusters: 32, VarianceDecay: 0.90, ClusterStd: 0.12}
	// Texture48 stands in for TEXTURE48: 26,697 48-d texture vectors (KLT).
	Texture48 = Spec{Name: "TEXTURE48", N: 26697, Dim: 48, Clusters: 24, VarianceDecay: 0.88, ClusterStd: 0.10}
	// Texture60 stands in for TEXTURE60: 275,465 60-d Landsat texture vectors (KLT).
	Texture60 = Spec{Name: "TEXTURE60", N: 275465, Dim: 60, Clusters: 40, VarianceDecay: 0.90, ClusterStd: 0.10}
	// Isolet617 stands in for ISOLET617: 7,800 617-d spoken-letter features.
	Isolet617 = Spec{Name: "ISOLET617", N: 7800, Dim: 617, Clusters: 52, VarianceDecay: 0.97, ClusterStd: 0.08}
	// Stock360 stands in for STOCK360: 6,500 360-d DFT-transformed stock series.
	Stock360 = Spec{Name: "STOCK360", N: 6500, Dim: 360, TimeSeries: true, ClusterStd: 0.02}
)

// Scaled returns a copy of the spec with the cardinality scaled by
// factor (rounded, at least 1 point). Experiments use this to run the
// paper's workloads at reduced size in unit tests.
func (s Spec) Scaled(factor float64) Spec {
	c := s
	c.N = int(float64(s.N)*factor + 0.5)
	if c.N < 1 {
		c.N = 1
	}
	c.Name = fmt.Sprintf("%s@%g", s.Name, factor)
	return c
}

// Generate materializes the spec with the given random source.
func (s Spec) Generate(rng *rand.Rand) *Dataset {
	switch {
	case s.TimeSeries:
		return generateTimeSeries(s, rng)
	case s.Clusters <= 0:
		return GenerateUniform(s.Name, s.N, s.Dim, rng)
	default:
		return generateClustered(s, rng)
	}
}

// GenerateUniform returns n points distributed uniformly in [0,1]^dim.
func GenerateUniform(name string, n, dim int, rng *rand.Rand) *Dataset {
	pts := make([][]float64, n)
	flat := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		p := flat[i*dim : (i+1)*dim]
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return &Dataset{Name: name, Points: pts}
}

// generateClustered draws points from a mixture of axis-aligned
// Gaussians whose per-dimension standard deviation decays
// geometrically, imitating the eigenvalue decay of KLT-transformed
// real data. Cluster weights follow a Zipf-like law so that some
// regions are much denser than others (the non-uniformity the paper's
// density-biased queries exploit).
func generateClustered(s Spec, rng *rand.Rand) *Dataset {
	// decay[j] is VarianceDecay^j, multiplied out left to right as a
	// per-point product would, so every coordinate keeps its bits.
	decay := make([]float64, s.Dim)
	for j, v := 0, 1.0; j < s.Dim; j++ {
		decay[j] = v
		v *= s.VarianceDecay
	}
	centers := make([][]float64, s.Clusters)
	for c := range centers {
		centers[c] = make([]float64, s.Dim)
		for j := 0; j < s.Dim; j++ {
			// Centers also concentrate in leading dimensions.
			centers[c][j] = rng.Float64() * decay[j]
		}
	}
	// Zipf-like weights: weight of cluster c is 1/(c+1).
	cum := make([]float64, s.Clusters)
	total := 0.0
	for c := 0; c < s.Clusters; c++ {
		total += 1.0 / float64(c+1)
		cum[c] = total
	}
	pts := make([][]float64, s.N)
	flat := make([]float64, s.N*s.Dim)
	for i := 0; i < s.N; i++ {
		u := rng.Float64() * total
		c := 0
		for cum[c] < u {
			c++
		}
		p := flat[i*s.Dim : (i+1)*s.Dim]
		for j := 0; j < s.Dim; j++ {
			std := s.ClusterStd * decay[j]
			p[j] = centers[c][j] + rng.NormFloat64()*std
		}
		pts[i] = p
	}
	return &Dataset{Name: s.Name, Points: pts}
}

// generateTimeSeries builds random-walk price series and stores the
// real DFT coefficients of each series, mirroring the STOCK360
// construction ("price of 6,500 stocks over one year, transformed
// using DFT"). The DFT concentrates a random walk's energy in the
// lowest frequencies, so the result has the same strongly skewed
// per-dimension variance profile as the paper's dataset.
func generateTimeSeries(s Spec, rng *rand.Rand) *Dataset {
	pts := make([][]float64, s.N)
	series := make([]float64, s.Dim)
	dft := newDFT(s.Dim)
	for i := 0; i < s.N; i++ {
		price := 1.0 + rng.Float64()
		for t := 0; t < s.Dim; t++ {
			price += rng.NormFloat64() * s.ClusterStd
			series[t] = price
		}
		pts[i] = dft.real(series)
	}
	return &Dataset{Name: s.Name, Points: pts}
}
