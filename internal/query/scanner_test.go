package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hdidx/internal/dataset"
)

func TestSphereScannerMatchesBatch(t *testing.T) {
	data := uniformPoints(2000, 6, 31)
	queries := uniformPoints(20, 6, 32)
	s := NewSphereScanner(queries, 7)
	// Feed in uneven chunks.
	for off := 0; off < len(data); {
		c := 1 + (off*7)%123
		if off+c > len(data) {
			c = len(data) - off
		}
		s.Process(data[off : off+c])
		off += c
	}
	got := s.Spheres()
	want := refComputeSpheres(data, queries, 7)
	for i := range want {
		if got[i].Radius != want[i].Radius {
			t.Errorf("query %d: streamed radius %v, oracle %v", i, got[i].Radius, want[i].Radius)
		}
	}
}

func TestSphereScannerPanicsUnderfed(t *testing.T) {
	s := NewSphereScanner(uniformPoints(3, 2, 33), 5)
	s.Process(uniformPoints(3, 2, 34))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when fewer than k points were seen")
		}
	}()
	s.Spheres()
}

func TestSphereScannerBadKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSphereScanner(nil, 0)
}

// A query whose width differs from the dataset's panics in Process,
// naming the query.
func TestSphereScannerQueryDimensionPanics(t *testing.T) {
	s := NewSphereScanner([][]float64{{1, 2}, {1, 2, 3}}, 1)
	wantPanic(t, "query 1 has dimension 3, want 2", func() {
		s.Process([][]float64{{1, 2}, {3, 4}})
	})
}

// wantPanic fails the test unless f panics with a message containing
// want.
func wantPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// Property: chunking never changes the result.
func TestSphereScannerChunkingInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(300)
		dim := 1 + r.Intn(5)
		k := 1 + r.Intn(10)
		data := dataset.GenerateUniform("u", n, dim, r).Points
		queries := dataset.GenerateUniform("q", 5, dim, r).Points

		one := NewSphereScanner(queries, k)
		one.Process(data)

		many := NewSphereScanner(queries, k)
		for off := 0; off < n; {
			c := 1 + r.Intn(n-off)
			many.Process(data[off : off+c])
			off += c
		}
		a, b := one.Spheres(), many.Spheres()
		for i := range a {
			if a[i].Radius != b[i].Radius {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
