package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdidx/internal/dataset"
	"hdidx/internal/obs"
	"hdidx/internal/serve"
)

// The serving experiment exercises the concurrent query-serving core
// (internal/serve) under a mixed workload: several reader goroutines
// issue k-NN queries against the live snapshot while a writer ingests
// new points continuously, forcing snapshot publications throughout
// the run. It reports throughput, per-query latency quantiles from the
// server's reservoir sketch, and the epoch-protocol counters
// (generations published, snapshots retired, admission rejections).
// This is an extension beyond the paper — the paper predicts the cost
// of a static index; the server is the runtime that makes the index
// answer queries while it grows.

// ServeResult is the concurrent-serving experiment.
type ServeResult struct {
	Dataset string
	N       int // initial points
	Dim     int
	Readers int
	K       int
	// Shards is the serving shard count; with more than one, each
	// publication event re-flattens and rewrites only the shard that
	// filled, so FlattenPerGen and BytesPerGen shrink as O(N/Shards).
	Shards int
	// Mapped reports whether the final generation was served zero-copy
	// from its durably published file's read-only mapping.
	Mapped bool
	// Served is the number of k-NN queries answered; Overloads counts
	// admission rejections (retried by the readers).
	Served    int64
	Overloads int64
	// Inserted points were ingested during the run, causing Generations
	// publication events (Publications shard snapshots across them, of
	// which Retired have drained).
	Inserted     int
	Generations  int64
	Publications int64
	Retired      int64
	// FlattenPerGen and BytesPerGen are the steady-state per-event
	// publication costs (flatten time and durable bytes averaged over
	// the run's post-boot publication events) — the costs sharding
	// divides by the shard count.
	FlattenPerGen time.Duration
	BytesPerGen   int64
	Elapsed       time.Duration
	// Throughput is served queries per second of wall clock.
	Throughput float64
	// KNN is the per-query latency digest (gate wait + search).
	KNN obs.LatencySummary
}

// Serve runs the concurrent serving workload on the COLOR64 stand-in:
// 4 readers each issue opt.Queries k-NN queries while a writer inserts
// a quarter of the initial cardinality, republishing the snapshot
// every 128 inserts.
func Serve(opt Options) (ServeResult, error) {
	opt = opt.withDefaults()
	spec := dataset.Color64
	scaled := spec
	if opt.Scale != 1 {
		scaled = spec.Scaled(opt.Scale)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	data := scaled.Generate(rng).Points
	dim := len(data[0])
	k := min(opt.K, len(data))

	// Publications are durable into a temp directory so the experiment
	// exercises the full publication path — write, verifying reopen
	// (zero-copy mmap where the platform has it), retire-unmap.
	dir, err := os.MkdirTemp("", "hdidx-serve-")
	if err != nil {
		return ServeResult{}, fmt.Errorf("serve: %w", err)
	}
	defer os.RemoveAll(dir)
	flattenEvery := opt.FlattenEvery
	if flattenEvery <= 0 {
		flattenEvery = 128
	}
	srv, err := serve.New(data, serve.Config{
		Shards:       opt.Shards,
		FlattenEvery: flattenEvery,
		SnapshotPath: filepath.Join(dir, "serve.hdsn"),
	})
	if err != nil {
		return ServeResult{}, fmt.Errorf("serve: %w", err)
	}
	defer srv.Close()
	// Baseline after boot: the per-generation publication costs below
	// are steady-state (post-boot) averages, excluding the initial
	// full-index publication.
	boot := srv.Stats()

	const readers = 4
	inserts := len(data) / 4
	if inserts < 256 {
		inserts = 256
	}
	// Pre-draw the writer's points so generation cost stays outside the
	// timed region; readers jitter around existing points so queries
	// land in the populated region.
	newPts := make([][]float64, inserts)
	for i := range newPts {
		p := make([]float64, dim)
		copy(p, data[rng.Intn(len(data))])
		for d := range p {
			p[d] += 0.01 * rng.NormFloat64()
		}
		newPts[i] = p
	}

	start := time.Now()
	var wg sync.WaitGroup
	var served atomic.Int64
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for _, p := range newPts {
			if err := srv.Insert(p); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opt.Queries; {
				q := make([]float64, dim)
				copy(q, data[rng.Intn(len(data))])
				for d := range q {
					q[d] += 0.02 * rng.NormFloat64()
				}
				_, err := srv.KNN(q, k)
				if err == serve.ErrOverloaded {
					time.Sleep(50 * time.Microsecond)
					continue // retry the same slot
				}
				if err != nil {
					errs <- err
					return
				}
				served.Add(1)
				i++
			}
		}(opt.Seed + 100 + int64(r))
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return ServeResult{}, fmt.Errorf("serve: %w", err)
	default:
	}

	st := srv.Stats()
	res := ServeResult{
		Dataset:      scaled.Name,
		N:            len(data),
		Dim:          dim,
		Readers:      readers,
		K:            k,
		Shards:       len(st.Shards),
		Mapped:       st.Mapped,
		Served:       served.Load(),
		Overloads:    st.Overloads,
		Inserted:     inserts,
		Generations:  st.Generation,
		Publications: st.Publications,
		Retired:      st.RetiredSnapshots,
		Elapsed:      elapsed,
		Throughput:   float64(served.Load()) / elapsed.Seconds(),
		KNN:          st.KNN,
	}
	if gens := st.Generation - boot.Generation; gens > 0 {
		res.FlattenPerGen = (st.FlattenTime - boot.FlattenTime) / time.Duration(gens)
		res.BytesPerGen = (st.BytesWritten - boot.BytesWritten) / gens
	}
	return res, nil
}

// String renders the experiment.
func (r ServeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrent serving (extension) — %d readers vs 1 writer (%s, N=%d, d=%d, k=%d, S=%d)\n",
		r.Readers, r.Dataset, r.N, r.Dim, r.K, r.Shards)
	fmt.Fprintf(&b, "served %d queries in %v (%.0f q/s), %d rejected for backpressure\n",
		r.Served, r.Elapsed.Round(time.Millisecond), r.Throughput, r.Overloads)
	serving := "resident snapshots"
	if r.Mapped {
		serving = "mmap-backed snapshots (zero-copy)"
	}
	fmt.Fprintf(&b, "ingested %d points across %d publication events (%d shard snapshots, %d retired, %s)\n",
		r.Inserted, r.Generations, r.Publications, r.Retired, serving)
	fmt.Fprintf(&b, "publication cost: %v flatten, %d KB written per event (dirty shards only)\n",
		r.FlattenPerGen.Round(time.Microsecond), r.BytesPerGen/1024)
	fmt.Fprintf(&b, "k-NN latency: p50 %v  p95 %v  p99 %v  max %v  (mean %v over %d)\n",
		r.KNN.P50.Round(time.Microsecond), r.KNN.P95.Round(time.Microsecond),
		r.KNN.P99.Round(time.Microsecond), r.KNN.Max.Round(time.Microsecond),
		r.KNN.Mean.Round(time.Microsecond), r.KNN.Count)
	return b.String()
}
