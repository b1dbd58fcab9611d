package dataset

import "math"

// DFTReal computes the real discrete Fourier transform of x and
// returns a vector of the same length: out[0] is the DC coefficient,
// followed by interleaved (real, imaginary) parts of the positive
// frequencies. For even lengths the final slot holds the Nyquist
// coefficient. The mapping is invertible (the tests invert it) and
// energy-preserving up to the usual 1/n convention, making it a
// faithful stand-in for the paper's "transformed using DFT".
func DFTReal(x []float64) []float64 {
	n := len(x)
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
	half := (n - 1) / 2
	for k := 1; k <= half; k++ {
		var re, im float64
		for t, v := range x {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			re += v * math.Cos(angle)
			im += v * math.Sin(angle)
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
