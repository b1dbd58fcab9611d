package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdidx/internal/obs"
	"hdidx/internal/pager"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
)

// TestServeShardedMatchesSingle is the serving-layer face of the
// sharded bit-identity property: a server with any shard count must
// answer every k-NN and range query identically — radius, neighbor
// values and order, tie-breaks, counts — to a single-shard server over
// the same points, across dimensions 1–64, including engineered ties
// and shards smaller than k.
func TestServeShardedMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dim := range []int{1, 3, 8, 16, 64} {
		n := 80 + rng.Intn(150)
		data := uniform(n, dim, rng.Int63())
		// Engineered ties: duplicate one point several times so the k-th
		// radius ties exactly across copies landing in different shards.
		for c := 0; c < 5; c++ {
			data = append(data, append([]float64(nil), data[0]...))
		}
		oracle, err := New(data, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 4, 8} {
			s, err := New(data, Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for qi := 0; qi < 8; qi++ {
				var q []float64
				if qi%2 == 0 {
					q = data[rng.Intn(len(data))]
				} else {
					q = uniform(1, dim, rng.Int63())[0]
				}
				// k spanning sub-k shards (every shard smaller than k)
				// up to the full cardinality.
				for _, k := range []int{1, 7, len(data)/shards + 2, len(data)} {
					want, err := oracle.KNN(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.KNN(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if got.Radius != want.Radius {
						t.Fatalf("dim=%d shards=%d k=%d: radius %v != single-shard %v",
							dim, shards, k, got.Radius, want.Radius)
					}
					if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
						t.Fatalf("dim=%d shards=%d k=%d: neighbors diverge", dim, shards, k)
					}
				}
				wantN, err := oracle.RangeCount(q, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				gotN, err := s.RangeCount(q, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN {
					t.Fatalf("dim=%d shards=%d: range count %d != single-shard %d",
						dim, shards, gotN, wantN)
				}
			}
			s.Close()
		}
		oracle.Close()
	}
}

// TestServeShardedBatchIdentity drives a full admission batch through
// a sharded server (serveBatch called directly, so the batch is full)
// and checks every reply against the single-shard oracle.
func TestServeShardedBatchIdentity(t *testing.T) {
	data := uniform(600, 8, 33)
	oracle, err := New(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	s, err := New(data, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	queries := uniform(16, 8, 34)
	calls := make([]*call, len(queries))
	for i, q := range queries {
		calls[i] = &call{kind: callKNN, q: q, k: 1 + i, start: time.Now(), reply: make(chan reply, 1)}
	}
	s.serveBatch(calls)
	for i, c := range calls {
		r := <-c.reply
		if r.err != nil {
			t.Fatal(r.err)
		}
		want, err := oracle.KNN(queries[i], 1+i)
		if err != nil {
			t.Fatal(err)
		}
		if r.res.Radius != want.Radius || !reflect.DeepEqual(r.res.Neighbors, want.Neighbors) {
			t.Fatalf("batched query %d diverges from single-shard oracle", i)
		}
	}
}

// TestServeBatchAccessesAreOptimal pins the cost a batch reports: each
// k-NN reply's page accesses must be exactly those of one best-first
// search over the roots of every pinned shard (query.KNNSearchForest)
// — the nodes, in every shard, that meet the global k-NN sphere, the
// count the paper's predictor estimates. A shared-frontier batch
// traversal used to charge clustered queries for pages only their
// batch-mates needed (over 4x the optimum); queries near data points
// expose it, uniform random ones in 16 dimensions do not. At S > 1 the
// reply must also charge fewer leaf pages than searching each shard to
// its own k-th radius on at least one query: each shard's own radius
// is wider than the global one.
func TestServeBatchAccessesAreOptimal(t *testing.T) {
	const k = 21
	data := uniform(5000, 4, 71)
	rng := rand.New(rand.NewSource(72))
	queries := make([][]float64, 16)
	for i := range queries {
		q := append([]float64(nil), data[rng.Intn(len(data))]...)
		for d := range q {
			q[d] += 0.01 * rng.NormFloat64()
		}
		queries[i] = q
	}
	for _, shards := range []int{1, 4, 8} {
		s, err := New(data, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		calls := make([]*call, len(queries))
		for i, q := range queries {
			calls[i] = &call{kind: callKNN, q: q, k: k, start: time.Now(), reply: make(chan reply, 1)}
		}
		s.serveBatch(calls)
		sns := s.acquireAll()
		trees := make([]*rtree.FlatTree, len(sns))
		for i, sn := range sns {
			trees[i] = sn.ft
		}
		fewer := 0
		for i, c := range calls {
			r := <-c.reply
			if r.err != nil {
				t.Fatal(r.err)
			}
			want := query.KNNSearchForest(trees, queries[i], k)
			if r.res.LeafAccesses != want.LeafAccesses || r.res.DirAccesses != want.DirAccesses {
				t.Errorf("S=%d query %d: batch charged %d leaf / %d dir pages, optimal search reads %d / %d",
					shards, i, r.res.LeafAccesses, r.res.DirAccesses, want.LeafAccesses, want.DirAccesses)
			}
			scatter := 0
			for _, ft := range trees {
				scatter += query.KNNSearchFlat(ft, queries[i], min(k, ft.NumPoints)).LeafAccesses
			}
			if r.res.LeafAccesses > scatter || (shards == 1 && r.res.LeafAccesses != scatter) {
				t.Errorf("S=%d query %d: batch charged %d leaf pages, a search per shard %d",
					shards, i, r.res.LeafAccesses, scatter)
			}
			if r.res.LeafAccesses < scatter {
				fewer++
			}
		}
		if shards > 1 && fewer == 0 {
			t.Errorf("S=%d: no query read fewer leaf pages than a search per shard", shards)
		}
		releaseAll(sns)
		s.Close()
	}
}

// TestServeNoopFlush pins the no-op publication contract: a Flush with
// nothing pending consumes no generation, re-flattens nothing, and
// rewrites no file (mtime-checked), at one shard and at several.
func TestServeNoopFlush(t *testing.T) {
	for _, shards := range []int{1, 4} {
		dir := t.TempDir()
		path := filepath.Join(dir, "snap")
		s, err := New(uniform(200, 4, 5), Config{Shards: shards, SnapshotPath: path})
		if err != nil {
			t.Fatal(err)
		}
		snapshotState := func() map[string]time.Time {
			out := map[string]time.Time{}
			files, err := filepath.Glob(path + "*")
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				st, err := os.Stat(f)
				if err != nil {
					t.Fatal(err)
				}
				out[f] = st.ModTime()
			}
			return out
		}
		gen := s.Generation()
		flat := s.Stats().FlattenTime
		before := snapshotState()
		for i := 0; i < 3; i++ {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Generation(); got != gen {
			t.Fatalf("shards=%d: no-op flushes moved the generation %d -> %d", shards, gen, got)
		}
		if got := s.Stats().FlattenTime; got != flat {
			t.Fatalf("shards=%d: no-op flushes spent flatten time", shards)
		}
		if after := snapshotState(); !reflect.DeepEqual(before, after) {
			t.Fatalf("shards=%d: no-op flushes touched durable files\n before: %v\n after:  %v",
				shards, before, after)
		}
		// A real insert then flush must publish exactly once.
		if err := s.Insert(uniform(1, 4, 99)[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := s.Generation(); got != gen+1 {
			t.Fatalf("shards=%d: dirty flush moved generation to %d, want %d", shards, got, gen+1)
		}
		s.Close()
	}
}

// TestServeDirtyShardOnlyPublication is the tentpole's cost claim at
// the file level: when one shard fills, only that shard's snapshot is
// rewritten — the other shards' files stay byte-for-byte untouched —
// and per-publication bytes track the shard size, not the index size.
func TestServeDirtyShardOnlyPublication(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	path := filepath.Join(dir, "set.hdsm")
	s, err := New(uniform(400, 6, 7), Config{Shards: shards, FlattenEvery: 8, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	fileSet := func() map[string]time.Time {
		files, err := pager.ShardFiles(path)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]time.Time{}
		for _, f := range files {
			st, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			out[f] = st.ModTime()
		}
		return out
	}
	before := fileSet()
	if len(before) != shards {
		t.Fatalf("%d shard files after boot, want %d", len(before), shards)
	}
	bytesBefore := s.Stats().BytesWritten

	// Exactly FlattenEvery*shards - (shards-1) inserts: shard 0 reaches
	// its threshold, the others stay one short of a second publication.
	for i := 0; i < 8*shards-(shards-1); i++ {
		if err := s.Insert(uniform(1, 6, int64(1000+i))[0]); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Generation != 2 {
		t.Fatalf("generation %d after one shard filled, want 2", st.Generation)
	}
	if st.Shards[0].Publications != 2 {
		t.Fatalf("dirty shard published %d times, want 2", st.Shards[0].Publications)
	}
	for i := 1; i < shards; i++ {
		if st.Shards[i].Publications != 1 {
			t.Fatalf("clean shard %d published %d times, want 1 (boot only)", i, st.Shards[i].Publications)
		}
	}
	after := fileSet()
	changed := 0
	for f, mt := range after {
		if old, ok := before[f]; !ok || old != mt {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("%d shard files changed on a one-shard publication, want 1\n before: %v\n after:  %v",
			changed, before, after)
	}
	// Bytes written for the event are one shard's worth: strictly less
	// than half the boot write, which covered all four shards.
	delta := st.BytesWritten - bytesBefore
	if delta <= 0 || delta >= bytesBefore/2 {
		t.Fatalf("one-shard publication wrote %d bytes vs %d at boot; not shard-sized", delta, bytesBefore)
	}
}

// TestServeRangeQueueSemantics drives RangeCount through the admission
// protocol: a full queue rejects with ErrOverloaded, and a queued range
// call is answered by the batcher and recorded in the range sketch.
func TestServeRangeQueueSemantics(t *testing.T) {
	s := &Server{
		cfg:      Config{FlattenEvery: 1024}.withDefaults(),
		dim:      2,
		shards:   []*shard{{dyn: rtree.NewDynamic(rtree.NewGeometry(2))}},
		queue:    make(chan *call, 2),
		done:     make(chan struct{}),
		knnLat:   obs.NewLatencySketch(16),
		rangeLat: obs.NewLatencySketch(16),
	}
	s.shards[0].dyn.Insert([]float64{0, 0})
	s.shards[0].dyn.Insert([]float64{1, 1})
	s.mu.Lock()
	s.publishLocked(s.shards)
	s.mu.Unlock()

	// No batcher running: two queued calls fill the queue, the third
	// RangeCount must reject instead of blocking.
	q := []float64{0.1, 0.1}
	s.queue <- &call{kind: callRange, q: q, radius: 1}
	s.queue <- &call{kind: callRange, q: q, radius: 1}
	if _, err := s.RangeCount(q, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if n := s.overloads.Load(); n != 1 {
		t.Fatalf("overload counter %d, want 1", n)
	}

	c := &call{kind: callRange, q: q, radius: 5, start: time.Now(), reply: make(chan reply, 1)}
	s.serveBatch([]*call{c})
	r := <-c.reply
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.n != 2 {
		t.Fatalf("range count %d, want 2", r.n)
	}
	if s.rangeLat.Summary().Count != 1 {
		t.Fatal("served range call not recorded in the range latency sketch")
	}
}

// TestServeShardedRecoveryRoundTrip restarts a durable server, at one
// shard and at several, and requires query-level bit-identity pre/post
// restart, plus exact per-shard point counts (assignment preserved).
// The restart configures no geometry: the dimensionality comes from
// the manifest.
func TestServeShardedRecoveryRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) { testRecoveryRoundTrip(t, shards) })
	}
}

func testRecoveryRoundTrip(t *testing.T, shards int) {
	dir := t.TempDir()
	path := filepath.Join(dir, "set.hdsm")
	cfg := Config{Shards: shards, FlattenEvery: 16, SnapshotPath: path}
	s, err := New(uniform(300, 5, 15), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Insert(uniform(1, 5, int64(2000+i))[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	queries := uniform(12, 5, 16)
	type answer struct {
		res Result
		n   int
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		res, err := s.KNN(q, 9)
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.RangeCount(q, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer{res: res, n: n}
	}
	perShard := make([]int, shards)
	for i, ss := range s.Stats().Shards {
		perShard[i] = ss.Points
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if m := fileMappings(dir); len(m) != 0 {
		t.Fatalf("the closed server left the mappings %v", m)
	}
	s2, err := New(nil, cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 400 {
		t.Fatalf("recovered %d points, want 400", s2.Len())
	}
	// Recovery releases the files it opened before New returns: the
	// only mappings left are of its boot publication's files.
	if after := fileMappings(dir); after != nil {
		m, err := pager.ReadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		boot := map[string]bool{}
		for i, ms := range m.Shards {
			f := pager.ShardPath(path, i, ms.Generation)
			boot[f] = true
			if pager.MmapSupported() && after[f] == 0 {
				t.Fatalf("boot file %s is not mapped", f)
			}
		}
		for f, n := range after {
			if !boot[f] {
				t.Fatalf("%s is mapped by %d lines after New: recovery kept its mapping", f, n)
			}
		}
	}
	for i, ss := range s2.Stats().Shards {
		if ss.Points != perShard[i] {
			t.Fatalf("shard %d recovered %d points, want %d (assignment not preserved)", i, ss.Points, perShard[i])
		}
	}
	for i, q := range queries {
		res, err := s2.KNN(q, 9)
		if err != nil {
			t.Fatal(err)
		}
		if res.Radius != want[i].res.Radius || !reflect.DeepEqual(res.Neighbors, want[i].res.Neighbors) {
			t.Fatalf("query %d diverges after restart", i)
		}
		n, err := s2.RangeCount(q, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if n != want[i].n {
			t.Fatalf("query %d: range count %d after restart, want %d", i, n, want[i].n)
		}
	}
}

// TestServeShardedCrashSafety: every way the durable shard set can be
// damaged — torn or bit-flipped manifest, missing shard file, altered
// shard file, shard-count drift, a snapshot file where the manifest
// belongs — must fail recovery loudly, at one shard and at several. A
// server must never quietly serve a mixed or partial generation.
func TestServeShardedCrashSafety(t *testing.T) {
	shardCounts := []int{1, 3}
	setup := func(t *testing.T, shards int) (string, Config) {
		dir := t.TempDir()
		path := filepath.Join(dir, "set.hdsm")
		cfg := Config{Shards: shards, FlattenEvery: 8, SnapshotPath: path}
		s, err := New(uniform(150, 4, 19), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if err := s.Insert(uniform(1, 4, int64(300+i))[0]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return path, cfg
	}
	// refused runs damage on a fresh durable path at every shard count
	// and requires the restart to fail with an error containing want.
	refused := func(t *testing.T, want string, damage func(t *testing.T, path string, cfg *Config)) {
		for _, shards := range shardCounts {
			path, cfg := setup(t, shards)
			damage(t, path, &cfg)
			if s, err := New(nil, cfg); err == nil {
				s.Close()
				t.Fatalf("S=%d: recovery succeeded", shards)
			} else if !strings.Contains(err.Error(), want) {
				t.Fatalf("S=%d: error %q does not say %q", shards, err, want)
			}
		}
	}
	rewrite := func(t *testing.T, path string, edit func([]byte) []byte) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	firstShardFile := func(t *testing.T, path string) string {
		files, err := pager.ShardFiles(path)
		if err != nil || len(files) == 0 {
			t.Fatalf("shard files: %v %v", files, err)
		}
		return files[0]
	}

	t.Run("torn manifest", func(t *testing.T) {
		refused(t, "manifest", func(t *testing.T, path string, _ *Config) {
			rewrite(t, path, func(b []byte) []byte { return b[:len(b)-3] })
		})
	})
	t.Run("bit-flipped manifest", func(t *testing.T) {
		refused(t, "manifest", func(t *testing.T, path string, _ *Config) {
			rewrite(t, path, func(b []byte) []byte { b[len(b)/2] ^= 0x04; return b })
		})
	})
	t.Run("missing shard file", func(t *testing.T) {
		refused(t, "recover shard", func(t *testing.T, path string, _ *Config) {
			if err := os.Remove(firstShardFile(t, path)); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("altered shard file", func(t *testing.T) {
		refused(t, "recover shard", func(t *testing.T, path string, _ *Config) {
			rewrite(t, firstShardFile(t, path), func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })
		})
	})
	t.Run("shard count drift", func(t *testing.T) {
		refused(t, "shard count", func(t *testing.T, _ string, cfg *Config) { cfg.Shards++ })
	})
	t.Run("single snapshot at manifest path", func(t *testing.T) {
		// What Index.Save writes, and what a one-shard server wrote
		// before the manifest became the only durable layout; no code
		// reads it as a server's state.
		refused(t, "single snapshot", func(t *testing.T, path string, _ *Config) {
			ft := rtree.Build(uniform(100, 4, 23), rtree.BuildParams{LeafCap: 16, DirCap: 8}).Flatten()
			if _, err := pager.WriteFileAtomic(path, ft, pager.MinPageBytes); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestServeShardedSoak is the -race soak of the sharded epoch
// protocol: 4 readers hammer k-NN and range queries across well over
// 100 publication events on 4 shards with durable mmap-backed
// publication, a mid-run close and manifest recovery, and a NaN poison
// on every mapped shard's resident twin (any NaN in a served neighbor
// proves a row was read from the poisoned resident tree instead of the
// mapping). After the final quiesce every superseded snapshot — and
// only those — must have retired.
func TestServeShardedSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		dim          = 6
		shards       = 4
		flattenEvery = 8
		genTarget    = 60 // per phase; two phases >= 120 generations
		readers      = 4
	)
	dir := t.TempDir()
	path := filepath.Join(dir, "soak.hdsm")
	cfg := Config{
		Shards:       shards,
		FlattenEvery: flattenEvery,
		SnapshotPath: path,
	}

	var poisoned atomic.Int64
	publishHook = func(resident *rtree.FlatTree, sn *snapshot) {
		if sn.pg == nil {
			return // resident generation: poisoning it would serve NaNs
		}
		for i := range resident.Points.Data {
			resident.Points.Data[i] = math.NaN()
		}
		poisoned.Add(1)
	}
	t.Cleanup(func() { publishHook = nil })

	srv, err := New(uniform(400, dim, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}

	hammer := func(srv *Server, target int64) {
		t.Helper()
		var wg sync.WaitGroup
		stop := make(chan struct{})
		fail := make(chan string, readers+1)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				qs := uniform(64, dim, seed)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					q := qs[i%len(qs)]
					res, err := srv.KNN(q, 5)
					if errors.Is(err, ErrOverloaded) {
						time.Sleep(100 * time.Microsecond)
						continue
					}
					if err != nil {
						fail <- "knn: " + err.Error()
						return
					}
					for _, nb := range res.Neighbors {
						for _, v := range nb {
							if math.IsNaN(v) {
								fail <- "NaN neighbor: row served from a poisoned resident shard, not the map"
								return
							}
						}
					}
					if _, err := srv.RangeCount(q, 0.2); err != nil && !errors.Is(err, ErrOverloaded) {
						fail <- "range: " + err.Error()
						return
					}
					if i%16 == 0 {
						srv.Stats()
					}
				}
			}(int64(100 + r))
		}
		pts := uniform(int(target)*flattenEvery*shards, dim, 7)
		for _, p := range pts {
			if err := srv.Insert(p); err != nil {
				fail <- "insert: " + err.Error()
				break
			}
			if srv.Generation() >= target {
				break
			}
		}
		close(stop)
		wg.Wait()
		select {
		case msg := <-fail:
			t.Fatal(msg)
		default:
		}
	}

	hammer(srv, genTarget)
	st := srv.Stats()
	if st.Generation < genTarget {
		t.Fatalf("only %d generations published, want >= %d", st.Generation, genTarget)
	}
	if pager.MmapSupported() {
		if !st.Mapped {
			t.Fatal("mid-run generation not mmap-backed on every shard")
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats(); got.RetiredSnapshots != got.Publications-shards {
		t.Fatalf("%d publications but %d retired after quiesce (want %d); unmap lifecycle leaked",
			got.Publications, got.RetiredSnapshots, got.Publications-shards)
	}

	// Recovery: a fresh server resumes from the manifest + shard files —
	// written before their resident twins were poisoned, so recovered
	// points must be clean — and survives the same hammer again.
	srv2, err := New(nil, cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if srv2.Len() < 400 {
		t.Fatalf("recovered %d points, want >= 400", srv2.Len())
	}
	hammer(srv2, genTarget)
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if pager.MmapSupported() && poisoned.Load() == 0 {
		t.Fatal("publish hook never poisoned a mapped shard; the NaN proof proved nothing")
	}
}

// TestServeShardConfigValidation pins Config.Shards validation.
func TestServeShardConfigValidation(t *testing.T) {
	data := uniform(20, 3, 9)
	if _, err := New(data, Config{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := New(data, Config{Shards: MaxShards + 1}); err == nil {
		t.Fatal("shard count above MaxShards accepted")
	}
	// More shards than points is legal: some shards just stay empty.
	s, err := New(uniform(3, 3, 9), Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.KNN([]float64{0.5, 0.5, 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 3 {
		t.Fatalf("%d neighbors from a sparse sharded server, want 3", len(res.Neighbors))
	}
}

// TestServeDurableDeterministic is the serving face of the determinism
// property: two durable servers of the same shard count, each in its
// own directory, fed the same initial points and the same insert stream
// across several dirty-shard publications, hold byte-identical shard
// files and manifests after Flush. Nothing time-, path- or
// run-dependent reaches the published bytes.
func TestServeDurableDeterministic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) { testDurableDeterministic(t, shards) })
	}
}

func testDurableDeterministic(t *testing.T, shards int) {
	initial := uniform(300, 6, 51)
	inserts := uniform(150, 6, 52)
	run := func(dir string) map[string][]byte {
		path := filepath.Join(dir, "set.hdsm")
		s, err := New(initial, Config{Shards: shards, FlattenEvery: 16, SnapshotPath: path})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range inserts {
			if err := s.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		files, err := pager.ShardFiles(path)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, f := range append(files, path) {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(f)] = b
		}
		return out
	}
	a, b := run(t.TempDir()), run(t.TempDir())
	if len(a) != shards+1 {
		t.Fatalf("%d durable files, want %d shard files and a manifest", len(a), shards)
	}
	if len(b) != len(a) {
		t.Fatalf("second server left %d durable files, first %d", len(b), len(a))
	}
	for name, want := range a {
		got, ok := b[name]
		if !ok {
			t.Fatalf("second server has no %s", name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs between the two servers", name)
		}
	}
}
