package serve

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdidx/internal/query"
)

func uniform(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// checkResult asserts the internal consistency of one k-NN answer from
// s: exactly k neighbors, nondecreasing distance order, the reported
// radius equal to the k-th distance, and a published generation.
func checkResult(t testing.TB, s *Server, q []float64, k int, res Result) {
	t.Helper()
	if len(res.Neighbors) != k {
		t.Fatalf("%d neighbors, want %d", len(res.Neighbors), k)
	}
	prev := -1.0
	for i, nb := range res.Neighbors {
		d := dist(q, nb)
		if d < prev {
			t.Fatalf("neighbor %d at distance %v after %v — not sorted", i, d, prev)
		}
		prev = d
	}
	if kth := dist(q, res.Neighbors[k-1]); math.Abs(kth-res.Radius) > 1e-12 {
		t.Fatalf("radius %v != k-th neighbor distance %v", res.Radius, kth)
	}
	if g := s.Stats().Generation; g < 1 {
		t.Fatalf("generation %d < 1", g)
	}
}

func TestServeKNNMatchesDirectSearch(t *testing.T) {
	data := uniform(2000, 8, 1)
	s, err := New(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The server ingests through the dynamic tree, so compare against
	// a direct flat search over the server's own snapshot.
	sn := s.shards[0].acquire()
	defer sn.release()
	queries := uniform(20, 8, 2)
	for _, q := range queries {
		k := 7
		res, err := s.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, s, q, k, res)
		want := query.KNNSearchFlat(sn.ft, q, k)
		if res.Radius != want.Radius {
			t.Fatalf("radius %v != direct search %v", res.Radius, want.Radius)
		}
	}
}

// TestServeHighDimensional serves 360-d points (STOCK360's
// dimensionality) at the default 8 KB page, where a directory page
// fits two entries and the ingest tree floors its directory fill at 2:
// the served tree stays within ⌈log₂ N⌉ + 1 levels, and every answer
// equals the brute-force (distance, lex) scan bit for bit.
func TestServeHighDimensional(t *testing.T) {
	const dim = 360
	data := uniform(80, dim, 11)
	s, err := New(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sn := s.shards[0].acquire()
	height := sn.ft.Height
	sn.release()
	if bound := bits.Len(uint(len(data)-1)) + 1; height > bound {
		t.Fatalf("served tree of %d points has height %d, want <= %d", len(data), height, bound)
	}
	for qi, q := range uniform(20, dim, 12) {
		for _, k := range []int{1, 5, 21} {
			res, err := s.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			byDist := append([][]float64(nil), data...)
			sort.Slice(byDist, func(a, b int) bool {
				da, db := dist(q, byDist[a]), dist(q, byDist[b])
				if da != db {
					return da < db
				}
				for j, v := range byDist[a] {
					if v != byDist[b][j] {
						return v < byDist[b][j]
					}
				}
				return false
			})
			if res.Radius != dist(q, byDist[k-1]) {
				t.Fatalf("query %d k=%d: radius %v, brute force %v", qi, k, res.Radius, dist(q, byDist[k-1]))
			}
			if !reflect.DeepEqual(res.Neighbors, byDist[:k]) {
				t.Fatalf("query %d k=%d: neighbors differ from the brute-force (distance, lex) order", qi, k)
			}
		}
	}
}

func TestServeNeighborsAreCopies(t *testing.T) {
	data := uniform(300, 4, 3)
	s, err := New(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := data[5]
	res1, err := s.KNN(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range res1.Neighbors {
		for d := range nb {
			nb[d] = math.Inf(1) // vandalize the returned rows
		}
	}
	res2, err := s.KNN(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, s, q, 3, res2)
	if res2.Radius != res1.Radius {
		t.Fatalf("mutating returned neighbors changed the index: radius %v -> %v", res1.Radius, res2.Radius)
	}
}

func TestServeSnapshotLocalValidation(t *testing.T) {
	data := uniform(10, 3, 4)
	s, err := New(data, Config{FlattenEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.KNN(data[0], 11); err == nil {
		t.Fatal("k above snapshot size must fail")
	}
	// Ingest five more without publishing: k=11 still exceeds the
	// *snapshot*, which is what the query runs against.
	for i := 0; i < 5; i++ {
		if err := s.Insert(uniform(1, 3, int64(50+i))[0]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.KNN(data[0], 11); err == nil {
		t.Fatal("k above snapshot size must fail while inserts are unpublished")
	}
	s.Flush()
	res, err := s.KNN(data[0], 11)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, s, data[0], 11, res)
	if g := s.Stats().Shards[0].Generation; g != 2 {
		t.Fatalf("generation %d after one flush, want 2", g)
	}
}

func TestServeRangeCount(t *testing.T) {
	data := uniform(1000, 5, 6)
	s, err := New(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sn := s.shards[0].acquire()
	defer sn.release()
	for _, q := range uniform(10, 5, 7) {
		n, err := s.RangeCount(q, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := query.RangeSearchFlat(sn.ft, query.Sphere{Center: q, Radius: 0.4})
		if n != want {
			t.Fatalf("range count %d != direct %d", n, want)
		}
		if gen := s.Stats().Shards[0].Generation; gen != sn.gen {
			t.Fatalf("generation %d != %d", gen, sn.gen)
		}
	}
}

// holdGate takes s's search gate, as a search in flight holds it, and
// starts n callers of call; it returns once all n wait for the gate.
// open releases the gate and returns the callers' errors.
func holdGate(t *testing.T, s *Server, n int, call func() error) (open func() []error) {
	t.Helper()
	s.gate.Lock()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- call() }()
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.waiting.Load() < int64(n) {
		if time.Now().After(deadline) {
			s.gate.Unlock()
			t.Fatalf("%d of %d callers wait for the search gate", s.waiting.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return func() []error {
		s.gate.Unlock()
		out := make([]error, n)
		for i := range out {
			out[i] = <-errs
		}
		return out
	}
}

// TestServeBackpressure fills the admission bound: with the search gate
// held and queueDepth callers waiting for it, the next KNN and
// RangeCount are rejected at once with ErrOverloaded and counted, and
// every waiter is answered once the gate opens.
func TestServeBackpressure(t *testing.T) {
	s, err := New([][]float64{{0, 0}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := []float64{0.5, 0.5}
	open := holdGate(t, s, queueDepth, func() error {
		_, err := s.KNN(q, 1)
		return err
	})
	// Errorf, not Fatalf, until the gate opens: the waiters and the
	// deferred Close need it.
	if _, err := s.KNN(q, 1); !errors.Is(err, ErrOverloaded) {
		t.Errorf("KNN: err = %v, want ErrOverloaded", err)
	}
	if _, err := s.RangeCount(q, 1); !errors.Is(err, ErrOverloaded) {
		t.Errorf("RangeCount: err = %v, want ErrOverloaded", err)
	}
	if n := s.Stats().Overloads; n != 2 {
		t.Errorf("Overloads = %d, want 2", n)
	}
	for i, err := range open() {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if n := s.Stats().KNN.Count; n != queueDepth {
		t.Fatalf("%d k-NN answers recorded, want %d", n, queueDepth)
	}
}

func TestServeClose(t *testing.T) {
	s, err := New(uniform(50, 3, 8), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close: %v, want ErrClosed", err)
	}
	if _, err := s.KNN([]float64{0, 0, 0}, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("KNN after close: %v, want ErrClosed", err)
	}
	if err := s.Insert([]float64{0, 0, 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after close: %v, want ErrClosed", err)
	}
}

// TestSnapshotRetireProtocol exercises the pin/supersede/retire state
// machine directly: retirement happens exactly once, never while
// pinned, and the writer/last-reader race resolves to one retirement.
func TestSnapshotRetireProtocol(t *testing.T) {
	var retired atomic.Int64
	sn := &snapshot{onRetire: func(*snapshot) { retired.Add(1) }}
	sn.pins.Add(1)
	sn.superseded.Store(true)
	sn.tryRetire() // writer attempt while pinned: must not retire
	if retired.Load() != 0 {
		t.Fatal("retired while pinned")
	}
	sn.release() // last pin out: retires
	if retired.Load() != 1 {
		t.Fatalf("retired %d times after drain, want 1", retired.Load())
	}
	sn.tryRetire() // idempotent
	if retired.Load() != 1 {
		t.Fatalf("retired %d times, want exactly 1", retired.Load())
	}
}

// TestServeSoak is the -race soak of the epoch protocol: readers
// querying continuously while the writer drives a few hundred snapshot
// generations. Every answer must be internally consistent, no
// generation may run backwards within one goroutine's view of its own
// acquire order, and when everything drains every superseded snapshot
// — and only those — must have retired exactly once.
func TestServeSoak(t *testing.T) {
	const (
		dim          = 6
		initial      = 256
		flattenEvery = 8
		generations  = 300
		readers      = 4
	)
	data := uniform(initial, dim, 9)
	s, err := New(data, Config{FlattenEvery: flattenEvery})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				q := make([]float64, dim)
				for d := range q {
					q[d] = rng.Float64()
				}
				k := 1 + rng.Intn(8)
				res, err := s.KNN(q, k)
				if errors.Is(err, ErrOverloaded) {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				if len(res.Neighbors) != k {
					errs <- errors.New("wrong neighbor count")
					return
				}
				prev := -1.0
				for _, nb := range res.Neighbors {
					d := dist(q, nb)
					if d < prev {
						errs <- errors.New("neighbors out of order")
						return
					}
					prev = d
				}
				if math.Abs(prev-res.Radius) > 1e-12 {
					errs <- errors.New("radius != k-th neighbor distance")
					return
				}
				if rng.Intn(4) == 0 {
					if _, err := s.RangeCount(q, 0.3); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(100 + r))
	}

	// Writer: drive the configured number of generations.
	rng := rand.New(rand.NewSource(11))
	for s.Generation() < generations {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.Float64()
		}
		if err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	gens := s.Generation()
	if gens < generations {
		t.Fatalf("only %d generations", gens)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// All pins have drained: every superseded snapshot must have
	// retired, and the live snapshot must not have.
	if got, want := s.retires.Load(), gens-1; got != want {
		t.Fatalf("%d snapshots retired, want %d", got, want)
	}
	if s.shards[0].cur.Load().retired.Load() {
		t.Fatal("live snapshot retired")
	}
	st := s.knnLat.Summary()
	if st.Count == 0 {
		t.Fatal("no KNN latencies recorded")
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("implausible latency summary %+v", st)
	}
}

// TestAcquireNeverReturnsRetired hammers acquire/release against a
// publisher loop and asserts the validation invariant directly: a
// returned snapshot is not retired at any point before its release.
func TestAcquireNeverReturnsRetired(t *testing.T) {
	s, err := New(uniform(64, 2, 12), Config{FlattenEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var violations atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				sn := s.shards[0].acquire()
				if sn.retired.Load() {
					violations.Add(1)
				}
				sn.release()
			}
		}()
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		if err := s.Insert([]float64{rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d retired snapshots observed while pinned", v)
	}
	s.Close()
}

// TestServeRejectsNonFinite pins the boundary check: a query with a
// NaN coordinate used to return no neighbors and radius +Inf on one
// shard but radius 0 on four, and a NaN radius counted 0 points, all
// without an error. Every such call must now fail at every shard
// count, and a rejected insert must leave nothing behind.
func TestServeRejectsNonFinite(t *testing.T) {
	data := uniform(400, 4, 61)
	bad := [][]float64{
		{math.NaN(), 0.5, 0.5, 0.5},
		{0.5, math.Inf(1), 0.5, 0.5},
		{0.5, 0.5, 0.5, math.Inf(-1)},
	}
	for _, shards := range []int{1, 4} {
		s, err := New(data, Config{Shards: shards, FlattenEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		gen := s.Generation()
		for i, p := range bad {
			if _, err := s.KNN(p, 5); err == nil {
				t.Errorf("S=%d point %d: KNN accepted a non-finite query", shards, i)
			}
			if _, err := s.RangeCount(p, 0.1); err == nil {
				t.Errorf("S=%d point %d: RangeCount accepted a non-finite center", shards, i)
			}
			if err := s.Insert(p); err == nil {
				t.Errorf("S=%d point %d: Insert accepted a non-finite point", shards, i)
			}
		}
		if _, err := s.RangeCount(data[0], math.NaN()); err == nil {
			t.Errorf("S=%d: RangeCount accepted a NaN radius", shards)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if s.Len() != len(data) || s.Generation() != gen {
			t.Errorf("S=%d: rejected inserts changed the server: %d points, generation %d -> %d",
				shards, s.Len(), gen, s.Generation())
		}
		s.Close()
		if _, err := New(append(data[:10:10], bad[0]), Config{Shards: shards}); err == nil {
			t.Errorf("S=%d: New accepted a non-finite initial point", shards)
		}
	}
}
