package dataset

import "math"

// DFTReal computes the real discrete Fourier transform of x and
// returns a vector of the same length: out[0] is the DC coefficient,
// followed by interleaved (real, imaginary) parts of the positive
// frequencies. For even lengths the final slot holds the Nyquist
// coefficient. The mapping is invertible (the tests invert it) and
// energy-preserving up to the usual 1/n convention, making it a
// faithful stand-in for the paper's "transformed using DFT".
func DFTReal(x []float64) []float64 { return newDFT(len(x)).real(x) }

// dft holds the cosines and sines of one transform length, so a
// dataset of many series computes them once. Row k-1 of cos and sin
// holds frequency k's terms, k = 1..(n-1)/2.
type dft struct {
	n        int
	cos, sin [][]float64
}

func newDFT(n int) *dft {
	half := (n - 1) / 2
	d := &dft{n: n, cos: make([][]float64, half), sin: make([][]float64, half)}
	for k := 1; k <= half; k++ {
		c, s := make([]float64, n), make([]float64, n)
		for t := range c {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			c[t], s[t] = math.Cos(angle), math.Sin(angle)
		}
		d.cos[k-1], d.sin[k-1] = c, s
	}
	return d
}

// real is DFTReal of x, which must have length d.n.
func (d *dft) real(x []float64) []float64 {
	n := d.n
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	// DC.
	var dc float64
	for _, v := range x {
		dc += v
	}
	out[0] = dc / float64(n)
	for k := 1; k <= len(d.cos); k++ {
		c, s := d.cos[k-1], d.sin[k-1]
		var re, im float64
		for t, v := range x {
			re += v * c[t]
			im += v * s[t]
		}
		out[2*k-1] = re * 2 / float64(n)
		out[2*k] = im * 2 / float64(n)
	}
	if n%2 == 0 {
		var ny float64
		for t, v := range x {
			if t%2 == 0 {
				ny += v
			} else {
				ny -= v
			}
		}
		out[n-1] = ny / float64(n)
	}
	return out
}
