package quant

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// buildMarks sorts a copy of coords and computes marks for the given
// bit width.
func buildMarks(coords []float64, bits int) []float64 {
	sorted := append([]float64(nil), coords...)
	sort.Float64s(sorted)
	m := make([]float64, (1<<bits)+1)
	Marks(m, sorted)
	return m
}

func TestMarksInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		bits := 1 + rng.Intn(8)
		coords := make([]float64, n)
		switch trial % 4 {
		case 0: // uniform
			for i := range coords {
				coords[i] = rng.Float64()
			}
		case 1: // heavy duplicates
			for i := range coords {
				coords[i] = float64(rng.Intn(3))
			}
		case 2: // constant (degenerate dimension)
			c := rng.NormFloat64()
			for i := range coords {
				coords[i] = c
			}
		default: // clustered gaussians
			for i := range coords {
				coords[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
			}
		}
		m := buildMarks(coords, bits)
		for s := 1; s < len(m); s++ {
			if m[s] < m[s-1] {
				t.Fatalf("trial %d: marks decrease at %d: %v > %v", trial, s, m[s-1], m[s])
			}
		}
		// Every coordinate lands strictly inside its own cell's
		// half-open interval [m[c], m[c+1]).
		for _, x := range coords {
			c := Cell(m, x)
			if int(c) >= len(m)-1 {
				t.Fatalf("trial %d: cell %d out of range (%d cells)", trial, c, len(m)-1)
			}
			if !(m[c] <= x && x < m[c+1]) {
				t.Fatalf("trial %d: x=%v not in cell %d [%v, %v)", trial, x, c, m[c], m[c+1])
			}
		}
	}
}

// TestBoundsSound is the bound-soundness property test behind the
// VA-file's exact filtering: for random queries and points across bit widths 1-8 —
// including degenerate constant dimensions and points sitting exactly
// on cell boundaries — the summed squared bounds must bracket the
// exact squared distance computed in the same ascending-dimension
// order, with no epsilon: the per-term dominance argument in the
// package comment is exact, not approximate.
func TestBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		dim := 1 + rng.Intn(16)
		n := 1 + rng.Intn(200)
		bits := 1 + rng.Intn(8)
		cells := 1 << bits

		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, dim)
		}
		marks := make([][]float64, dim)
		coords := make([]float64, n)
		for d := 0; d < dim; d++ {
			mode := rng.Intn(4)
			c0 := rng.NormFloat64()
			for i := range pts {
				switch mode {
				case 0:
					pts[i][d] = rng.Float64()*200 - 100
				case 1: // few distinct values → empty collapsed cells
					pts[i][d] = float64(rng.Intn(4))
				case 2: // constant dimension
					pts[i][d] = c0
				default:
					pts[i][d] = rng.NormFloat64()
				}
				coords[i] = pts[i][d]
			}
			sort.Float64s(coords)
			m := make([]float64, cells+1)
			Marks(m, coords)
			marks[d] = m
		}
		// Nudge some points onto exact cell boundaries: a mark is a
		// dataset coordinate, so assigning it keeps the point valid.
		for i := 0; i < n/4; i++ {
			d := rng.Intn(dim)
			pts[rng.Intn(n)][d] = marks[d][rng.Intn(cells)]
		}

		codes := make([]uint32, dim)
		for q := 0; q < 4; q++ {
			query := make([]float64, dim)
			for d := range query {
				if rng.Intn(3) == 0 {
					query[d] = pts[rng.Intn(n)][d] // on-boundary / in-data query
				} else {
					query[d] = rng.NormFloat64() * 50
				}
			}
			for _, p := range pts {
				var exact, lo2, hi2 float64
				for d := 0; d < dim; d++ {
					codes[d] = Cell(marks[d], p[d])
					diff := p[d] - query[d]
					exact += diff * diff
					lo, hi := CellBounds(marks[d], codes[d], query[d])
					lo2 += lo * lo
					hi2 += hi * hi
				}
				if !(lo2 <= exact && exact <= hi2) {
					t.Fatalf("trial %d bits %d: bounds [%v, %v] do not bracket exact %v (point %v query %v codes %v)",
						trial, bits, lo2, hi2, exact, p, query, codes)
				}
			}
		}
	}
}

func TestCellBoundsContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		coords := make([]float64, 1+rng.Intn(50))
		for i := range coords {
			coords[i] = rng.NormFloat64()
		}
		m := buildMarks(coords, 1+rng.Intn(8))
		x := rng.NormFloat64() * 3
		for _, p := range coords {
			c := Cell(m, p)
			lo, hi := CellBounds(m, c, x)
			ad := math.Abs(p - x)
			if !(lo <= ad && ad <= hi) {
				t.Fatalf("per-dim bounds [%v, %v] miss |%v - %v| = %v (cell %d: [%v, %v])",
					lo, hi, p, x, ad, c, m[c], m[c+1])
			}
		}
	}
}
