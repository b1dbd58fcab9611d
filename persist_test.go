package hdidx

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"hdidx/internal/pager"
)

// TestSaveOpenBackends round-trips an index through Save and Open,
// requiring bit-identical query results from the reopened index — the
// facade face of the pager's backend bit-identity property — plus the
// platform's read choice in Mapped (a mapping exactly where mmap is
// supported) and idempotent Close.
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

	rng := rand.New(rand.NewSource(31))
	queries := make([][]float64, 15)
	for i := range queries {
		queries[i] = pts[rng.Intn(len(pts))]
	}
	ix, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if ix.Mapped() != pager.MmapSupported() {
		t.Fatalf("Mapped() = %v, want %v (pager.MmapSupported)", ix.Mapped(), pager.MmapSupported())
	}
	for _, q := range queries {
		wantN, wantSt, err := built.KNN(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		gotN, gotSt, err := ix.KNN(q, 7)
		if err != nil {
			t.Fatalf("knn: %v", err)
		}
		if wantSt != gotSt {
			t.Fatalf("stats %+v, want %+v", gotSt, wantSt)
		}
		for j := range wantN {
			for d := range wantN[j] {
				if wantN[j][d] != gotN[j][d] {
					t.Fatalf("neighbor %d differs from the built index", j)
				}
			}
		}
		wantC, _, err := built.RangeCount(q, wantSt.Radius)
		if err != nil {
			t.Fatal(err)
		}
		gotC, _, err := ix.RangeCount(q, wantSt.Radius)
		if err != nil {
			t.Fatalf("range: %v", err)
		}
		if wantC != gotC {
			t.Fatalf("range count %d, want %d", gotC, wantC)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestSnapshotPageBytesAgree pins one file page size per geometry: a
// durable server writes its shard files at the page size Index.Save
// writes for the same options, the format's 512-byte floor included.
func TestSnapshotPageBytesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([][]float64, 300)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	pageBytes := func(path string) int {
		t.Helper()
		s, err := pager.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.PageBytes()
	}
	dir := t.TempDir()
	for _, tc := range []struct{ configured, want int }{{256, pager.MinPageBytes}, {4096, 4096}} {
		opt := WithPageBytes(tc.configured)
		ix, err := Build(pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		saved := filepath.Join(dir, fmt.Sprintf("index%d.hdsn", tc.configured))
		if err := ix.Save(saved); err != nil {
			t.Fatal(err)
		}
		manifest := filepath.Join(dir, fmt.Sprintf("serve%d.hdsn", tc.configured))
		s, err := NewServer(pts, ServeConfig{SnapshotPath: manifest}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		shardFiles, err := filepath.Glob(manifest + ".s*.g*.hdsn")
		if err != nil || len(shardFiles) != 1 {
			t.Fatalf("shard files %v (%v), want one", shardFiles, err)
		}
		if got := pageBytes(saved); got != tc.want {
			t.Errorf("WithPageBytes(%d): Save wrote %d-byte pages, want %d", tc.configured, got, tc.want)
		}
		if got := pageBytes(shardFiles[0]); got != tc.want {
			t.Errorf("WithPageBytes(%d): the server wrote %d-byte pages, want %d", tc.configured, got, tc.want)
		}
	}
}
