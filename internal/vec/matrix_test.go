package vec

import "testing"

func TestMatrixAppendRows(t *testing.T) {
	var m Matrix
	m.AppendRows([][]float64{{1, 2}, {3, 4}})
	if m.Len() != 2 || m.Dim != 2 {
		t.Fatalf("matrix is %dx%d, want 2x2", m.Len(), m.Dim)
	}
	src := [][]float64{{5, 6}}
	m.AppendRows(src)
	if m.Len() != 3 || m.Row(2)[1] != 6 {
		t.Fatalf("append failed: %dx%d row2=%v", m.Len(), m.Dim, m.Row(2))
	}
	// The matrix is a copy: mutating the source must not leak through.
	src[0][0] = 999
	if m.Row(2)[0] == 999 {
		t.Error("matrix aliases the appended rows")
	}
}

func TestMatrixAppendRowsRaggedPanics(t *testing.T) {
	var m Matrix
	m.AppendRows([][]float64{{1, 2}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged append")
		}
	}()
	m.AppendRows([][]float64{{1, 2, 3}})
}
