package hdidx

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestKNNNeighborsAreCopies is the regression test for the
// neighbor-aliasing bug: Index.KNN used to return row views into the
// index's packed point matrix, so a caller writing through a returned
// neighbor silently corrupted the index. Returned neighbors must be
// private copies.
func TestKNNNeighborsAreCopies(t *testing.T) {
	pts := clusteredPoints(t, 0.01, 7)
	ix, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	q := pts[3]
	nbs1, st1, err := ix.KNN(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range nbs1 {
		for j := range nb {
			nb[j] = math.Inf(1) // vandalize every returned row
		}
	}
	nbs2, st2, err := ix.KNN(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Radius != st2.Radius || !reflect.DeepEqual(st1, st2) {
		t.Fatalf("mutating returned neighbors changed the index: %+v -> %+v", st1, st2)
	}
	for i, nb := range nbs2 {
		for j := range nb {
			if math.IsInf(nb[j], 1) {
				t.Fatalf("neighbor %d aliases the previous result's storage", i)
			}
		}
	}
}

// TestKNNValidatesAgainstSnapshot pins k validation to the flat
// snapshot actually being searched (it used to read the pointer tree's
// count — a different structure from the one serving the query).
func TestKNNValidatesAgainstSnapshot(t *testing.T) {
	pts := clusteredPoints(t, 0.005, 8)
	ix, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.KNN(pts[0], ix.flat.NumPoints); err != nil {
		t.Fatalf("k at snapshot size must work: %v", err)
	}
	if _, _, err := ix.KNN(pts[0], ix.flat.NumPoints+1); err == nil {
		t.Fatal("k above snapshot size must fail")
	}
}

// TestServerFacade drives the concurrent serving handle end to end:
// build, query, ingest, flush, stats, close.
func TestServerFacade(t *testing.T) {
	pts := clusteredPoints(t, 0.01, 9)
	s, err := NewServer(pts, ServeConfig{FlattenEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(pts) || s.Dim() != 60 {
		t.Fatalf("server %dx%d", s.Len(), s.Dim())
	}
	q := pts[10]
	nbs, st, err := s.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 5 || st.Radius < 0 || st.LeafAccesses < 1 {
		t.Fatalf("nbs=%d stats=%+v", len(nbs), st)
	}
	for j := range q {
		if nbs[0][j] != q[j] {
			t.Fatal("first neighbor is not the query point")
		}
	}
	// Nudge the radius up one ulp-ish: the k-NN radius round-trips
	// through sqrt, so re-squaring can land just below the k-th
	// point's exact squared distance.
	n, err := s.RangeCount(q, st.Radius*(1+1e-12))
	if err != nil {
		t.Fatal(err)
	}
	if n < 5 {
		t.Fatalf("range count %d below k within the k-NN radius", n)
	}
	before := s.Len()
	p := make([]float64, s.Dim())
	if err := s.Insert(p); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if s.Len() != before+1 {
		t.Fatalf("len %d after insert+flush, want %d", s.Len(), before+1)
	}
	stats := s.Stats()
	if stats.Generation < 2 || stats.KNN.Count < 1 || stats.KNN.P50 <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.KNN(q, 1); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("KNN after close: %v", err)
	}
}

// TestServerFacadeSharded drives a sharded server through the facade
// and checks bit-identity against an unsharded one, plus the per-shard
// stats surface.
func TestServerFacadeSharded(t *testing.T) {
	pts := clusteredPoints(t, 0.01, 11)
	single, err := NewServer(pts, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	s, err := NewServer(pts, ServeConfig{Shards: 4, FlattenEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for qi := 0; qi < 5; qi++ {
		q := pts[qi*7]
		wantN, wantSt, err := single.KNN(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		gotN, gotSt, err := s.KNN(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		if gotSt.Radius != wantSt.Radius || !reflect.DeepEqual(gotN, wantN) {
			t.Fatalf("sharded facade answer diverges from unsharded for query %d", qi)
		}
		wantC, err := single.RangeCount(q, wantSt.Radius*(1+1e-12))
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := s.RangeCount(q, wantSt.Radius*(1+1e-12))
		if err != nil {
			t.Fatal(err)
		}
		if gotC != wantC {
			t.Fatalf("sharded range count %d != unsharded %d", gotC, wantC)
		}
	}

	st := s.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("%d shard stats, want 4", len(st.Shards))
	}
	total := 0
	for i, sh := range st.Shards {
		if sh.Publications < 1 {
			t.Fatalf("shard %d reports %d publications", i, sh.Publications)
		}
		total += sh.Points
	}
	if total != len(pts) || st.Points != len(pts) {
		t.Fatalf("shard points sum %d, stats %d, want %d", total, st.Points, len(pts))
	}
	if st.Publications < 4 || st.FlattenTime <= 0 {
		t.Fatalf("publication accounting: %+v", st)
	}
	if _, err := NewServer(pts, ServeConfig{Shards: 100}); err == nil {
		t.Fatal("shard count above the maximum accepted")
	}
}

// TestRejectsNonFinite pins the facade's boundary check: non-finite
// coordinates in points or queries, and a NaN radius, are errors from
// every entry point, and a rejected insert leaves the server as it
// was.
func TestRejectsNonFinite(t *testing.T) {
	pts := clusteredPoints(t, 0.005, 12)[:300]
	dim := len(pts[0])
	bad := make([][]float64, 2)
	for i, v := range []float64{math.NaN(), math.Inf(1)} {
		bad[i] = append([]float64(nil), pts[0]...)
		bad[i][dim/2] = v
	}
	for i, p := range bad {
		poisoned := append(pts[:20:20], p)
		if _, err := Build(poisoned); err == nil {
			t.Errorf("point %d: Build accepted a non-finite point", i)
		}
		if _, err := NewPredictor(poisoned); err == nil {
			t.Errorf("point %d: NewPredictor accepted a non-finite point", i)
		}
		if _, err := NewServer(poisoned, ServeConfig{}); err == nil {
			t.Errorf("point %d: NewServer accepted a non-finite point", i)
		}
	}

	ix, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range bad {
		if _, _, err := ix.KNN(q, 5); err == nil {
			t.Errorf("query %d: Index.KNN accepted a non-finite query", i)
		}
		if _, _, err := ix.RangeCount(q, 0.1); err == nil {
			t.Errorf("query %d: Index.RangeCount accepted a non-finite center", i)
		}
	}
	if _, _, err := ix.RangeCount(pts[0], math.NaN()); err == nil {
		t.Error("Index.RangeCount accepted a NaN radius")
	}

	for _, shards := range []int{1, 4} {
		s, err := NewServer(pts, ServeConfig{Shards: shards, FlattenEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range bad {
			if _, _, err := s.KNN(p, 5); err == nil {
				t.Errorf("S=%d query %d: Server.KNN accepted a non-finite query", shards, i)
			}
			if _, err := s.RangeCount(p, 0.1); err == nil {
				t.Errorf("S=%d query %d: Server.RangeCount accepted a non-finite center", shards, i)
			}
			if err := s.Insert(p); err == nil {
				t.Errorf("S=%d point %d: Server.Insert accepted a non-finite point", shards, i)
			}
		}
		if _, err := s.RangeCount(pts[0], math.NaN()); err == nil {
			t.Errorf("S=%d: Server.RangeCount accepted a NaN radius", shards)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if s.Len() != len(pts) {
			t.Errorf("S=%d: rejected inserts changed the server: %d points, want %d", shards, s.Len(), len(pts))
		}
		s.Close()
	}
}
