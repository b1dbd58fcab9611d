package vec

import "fmt"

// Matrix is a dense row-major point matrix: row i occupies
// Data[i*Dim : (i+1)*Dim]. It is the flat, cache-friendly counterpart
// of a [][]float64 point set — one contiguous allocation instead of a
// pointer per row — and is what the flat tree's leaf scans iterate
// over. Build it once per dataset and share it; the scans never mutate
// it.
type Matrix struct {
	Data []float64
	N    int // number of rows (points)
	Dim  int // row stride (dimensionality)
}

// AppendRows flattens pts onto the end of the matrix, growing Data as
// needed. The matrix adopts the dimensionality of the first row ever
// appended; later mismatches panic.
func (m *Matrix) AppendRows(pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	if m.Dim == 0 && m.N == 0 {
		m.Dim = len(pts[0])
	}
	for i, p := range pts {
		if len(p) != m.Dim {
			panic(fmt.Sprintf("vec: ragged point set: row %d has dimension %d, want %d", i, len(p), m.Dim))
		}
		m.Data = append(m.Data, p...)
	}
	m.N += len(pts)
}

// Len returns the number of rows.
func (m Matrix) Len() int { return m.N }

// Row returns row i as a slice view into the matrix (not a copy).
func (m Matrix) Row(i int) []float64 {
	return m.Data[i*m.Dim : (i+1)*m.Dim : (i+1)*m.Dim]
}
