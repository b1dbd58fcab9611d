package hdidx

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// TestSaveOpenBackends round-trips an index through Save and every
// available backend of OpenWith, requiring bit-identical query results
// from each reopened index — the facade face of the pager's backend
// bit-identity property — plus correct Mapped reporting and idempotent
// Close.
func TestSaveOpenBackends(t *testing.T) {
	pts := clusteredPoints(t, 0.01, 12)
	built, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.hdsn")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}

	backends := []Backend{BackendAuto, BackendReadAt}
	if MmapSupported() {
		backends = append(backends, BackendMmap)
	}
	rng := rand.New(rand.NewSource(31))
	queries := make([][]float64, 15)
	for i := range queries {
		queries[i] = pts[rng.Intn(len(pts))]
	}
	for _, b := range backends {
		ix, err := OpenWith(path, b)
		if err != nil {
			t.Fatalf("%v: open: %v", b, err)
		}
		if b == BackendMmap && !ix.Mapped() {
			t.Fatalf("%v: index not mapped", b)
		}
		if b == BackendReadAt && ix.Mapped() {
			t.Fatalf("%v: index mapped", b)
		}
		for _, q := range queries {
			wantN, wantSt, err := built.KNN(q, 7)
			if err != nil {
				t.Fatal(err)
			}
			gotN, gotSt, err := ix.KNN(q, 7)
			if err != nil {
				t.Fatalf("%v: knn: %v", b, err)
			}
			if wantSt != gotSt {
				t.Fatalf("%v: stats %+v, want %+v", b, gotSt, wantSt)
			}
			for j := range wantN {
				for d := range wantN[j] {
					if wantN[j][d] != gotN[j][d] {
						t.Fatalf("%v: neighbor %d differs from the built index", b, j)
					}
				}
			}
			wantC, _, err := built.RangeCount(q, wantSt.Radius)
			if err != nil {
				t.Fatal(err)
			}
			gotC, _, err := ix.RangeCount(q, wantSt.Radius)
			if err != nil {
				t.Fatalf("%v: range: %v", b, err)
			}
			if wantC != gotC {
				t.Fatalf("%v: range count %d, want %d", b, gotC, wantC)
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatalf("%v: close: %v", b, err)
		}
		if err := ix.Close(); err != nil {
			t.Fatalf("%v: second close: %v", b, err)
		}
	}
}
