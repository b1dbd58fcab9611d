//go:build benchtrace

package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hdidx"
	"hdidx/internal/disk"
	"hdidx/internal/obs"
	"hdidx/internal/pager"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
	"hdidx/internal/stats"
)

// The layer replay. After the end-to-end phases, a traced run calls
// each layer's own functions from this file, single-threaded, on the
// run's inputs, and records every call as a span. It rebuilds the
// server's trees the way the server builds them, so its answers must
// equal the served ones bit for bit: a replay that drifts from the
// program is an error, not a number.

const traceBuilt = true

// replayN is the number of k-NN requests the replay times: enough for a
// p99 with 20 samples beyond it.
const replayN = 2000

// pageBytes is the facade's default page size, which sizes both the
// tree pages and the snapshot file pages.
const pageBytes = 8192

func geometry(dim int) rtree.Geometry {
	return rtree.Geometry{Dim: dim, PageBytes: pageBytes, Utilization: rtree.DefaultUtilization}
}

// replica is the replay's copy of a server: each shard's ingest tree
// and published flat tree, and — when durable — its snapshot files.
type replica struct {
	sp      *spanLog
	dyn     []*rtree.DynamicTree
	flat    []*rtree.FlatTree
	pending []int
	rr      int
	every   int
	gen     int64

	path  string // the manifest; "" in memory (durable workloads are sharded)
	m     *pager.Manifest
	mmap  bool
	maps  []*pager.Snapshot
	bytes int64 // durable bytes written after the initial publication
	pubs  int   // shard publications after the initial one
}

func newReplica(sp *spanLog, w servingSpec, dim int, dir string) *replica {
	rp := &replica{sp: sp, pending: make([]int, w.shards), flat: make([]*rtree.FlatTree, w.shards), every: w.flattenEvery}
	if rp.every == 0 {
		rp.every = 1024 // the server's default
	}
	for i := 0; i < w.shards; i++ {
		rp.dyn = append(rp.dyn, rtree.NewDynamic(geometry(dim)))
	}
	if w.durable {
		rp.path = filepath.Join(dir, "replay.hdsn")
		rp.m = &pager.Manifest{Dim: dim, Shards: make([]pager.ManifestShard, w.shards)}
		rp.mmap = pager.ResolveBackend(pager.BackendAuto) == pager.BackendMmap
		rp.maps = make([]*pager.Snapshot, w.shards)
	}
	return rp
}

// insert deals p to the next shard, as Server.Insert does, and
// publishes the shard when it has collected rp.every points. Points of
// the initial set (pending false) are only inserted: the server
// publishes them all at once when it starts.
func (rp *replica) insert(p []float64, req int64, pending bool) error {
	root, start := rp.sp.newID(), time.Now()
	sh := rp.rr % len(rp.dyn)
	rp.rr++
	cp := append([]float64(nil), p...)
	rp.sp.time(root, req, "rtree.insert", func() { rp.dyn[sh].Insert(cp) })
	var err error
	if pending {
		if rp.pending[sh]++; rp.pending[sh] >= rp.every {
			err = rp.publish(root, req, []int{sh}, false)
		}
	}
	rp.sp.put(root, 0, req, "replay.insert", start, time.Now())
	return err
}

// flush publishes every shard with pending points, as Server.Flush does.
func (rp *replica) flush(req int64) error {
	var dirty []int
	for sh, n := range rp.pending {
		if n > 0 {
			dirty = append(dirty, sh)
		}
	}
	if len(dirty) == 0 {
		return nil
	}
	root, start := rp.sp.newID(), time.Now()
	err := rp.publish(root, req, dirty, false)
	rp.sp.put(root, 0, req, "replay.flush", start, time.Now())
	return err
}

// publish is one publication event over the given shards: flatten each,
// and when durable write it, summarize it, map it, and commit the
// manifest — the steps of the server's publication, in its order.
func (rp *replica) publish(parent, req int64, shards []int, initial bool) error {
	rp.gen++
	for _, sh := range shards {
		var ft *rtree.FlatTree
		rp.sp.time(parent, req, "rtree.flatten", func() { ft = rp.dyn[sh].FlattenWith(rtree.FlattenOptions{}) })
		rp.flat[sh], rp.pending[sh] = ft, 0
		if rp.path == "" {
			continue
		}
		if err := rp.persist(parent, req, sh, ft, initial); err != nil {
			return fmt.Errorf("replay: publication %d, shard %d: %w", rp.gen, sh, err)
		}
	}
	if rp.path != "" {
		rp.m.Generation = rp.gen
		var n int64
		var err error
		rp.sp.time(parent, req, "pager.manifest", func() { n, err = pager.WriteManifestAtomic(rp.path, rp.m) })
		if err != nil {
			return fmt.Errorf("replay: manifest %d: %w", rp.gen, err)
		}
		if !initial {
			rp.bytes += n
		}
	}
	return nil
}

// persist writes one shard's snapshot the way a durable publication
// does. Superseded files stay until the run's temporary directory goes.
func (rp *replica) persist(parent, req int64, sh int, ft *rtree.FlatTree, initial bool) error {
	path := pager.ShardPath(rp.path, sh, rp.gen)
	// Encoding and writing alone, without fsync, into a throwaway file:
	// the atomic write minus this is what durability costs.
	var err error
	rp.sp.time(parent, req, "pager.write", func() {
		f, cerr := os.Create(path + ".nosync")
		if cerr != nil {
			err = cerr
			return
		}
		_, err = pager.Write(f, ft, pageBytes)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	})
	os.Remove(path + ".nosync")
	if err != nil {
		return err
	}
	var n int64
	rp.sp.time(parent, req, "pager.write_atomic", func() { n, err = pager.WriteFileAtomic(path, ft, pageBytes) })
	if err != nil {
		return err
	}
	if !initial {
		rp.bytes += n
		rp.pubs++
	}
	var crc uint32
	var size int64
	rp.sp.time(parent, req, "pager.summary", func() { crc, size, err = pager.FileSummary(path) })
	if err != nil {
		return err
	}
	rp.m.Shards[sh] = pager.ManifestShard{Generation: rp.gen, Bytes: size, HeaderCRC: crc}
	if rp.mmap {
		var pg *pager.Snapshot
		rp.sp.time(parent, req, "pager.mmap_open", func() {
			pg, err = pager.OpenWith(path, pager.Options{Backend: pager.BackendMmap})
		})
		if err != nil {
			return err
		}
		if old := rp.maps[sh]; old != nil {
			rp.sp.time(parent, req, "pager.unmap", func() { old.Close() })
		}
		rp.maps[sh] = pg
	}
	return nil
}

func (rp *replica) close() {
	for _, pg := range rp.maps {
		if pg != nil {
			pg.Close()
		}
	}
}

// knn answers one k-NN query the way the server does: one search per
// non-empty shard, each asked for at most its own point count, merged
// through the canonical top-k when there are several shards.
func (rp *replica) knn(q []float64, req int64) query.Result {
	root, start := rp.sp.newID(), time.Now()
	var parts []query.Result
	for _, ft := range rp.flat {
		if ft.NumPoints == 0 {
			continue
		}
		var res query.Result
		rp.sp.time(root, req, "query.knn_flat", func() { res = query.KNNSearchFlat(ft, q, min(k, ft.NumPoints)) })
		parts = append(parts, res)
	}
	out := parts[0]
	if len(rp.flat) > 1 {
		rp.sp.time(root, req, "query.merge", func() { out = query.KNNMerge(q, k, parts) })
	}
	rp.sp.put(root, 0, req, "replay.knn", start, time.Now())
	return out
}

// batchPerQuery answers qs in groups of 16 with one shared traversal
// per tree, as the server's batcher does for a full batch (no merge: it
// only times the traversals), and returns the traversal time per query
// in microseconds.
func batchPerQuery(sp *spanLog, flats []*rtree.FlatTree, qs [][]float64, next func() int64) float64 {
	const batch = 16
	n := len(qs) / batch * batch
	for i := 0; i < n; i += batch {
		req := next()
		for _, ft := range flats {
			if ft.NumPoints == 0 {
				continue
			}
			ks := make([]int, batch)
			for j := range ks {
				ks[j] = min(k, ft.NumPoints)
			}
			sp.time(0, req, "query.knn_b16", func() { query.KNNSearchFlatBatch(ft, qs[i:i+batch], ks) })
		}
	}
	return float64(sp.total("query.knn_b16")) / float64(time.Microsecond) / float64(n)
}

func (rp *replica) rangeCount(q []float64, radius float64, req int64) int {
	root, start := rp.sp.newID(), time.Now()
	n := 0
	for _, ft := range rp.flat {
		rp.sp.time(root, req, "query.range", func() {
			c, _ := query.RangeSearchFlat(ft, query.Sphere{Center: q, Radius: radius})
			n += c
		})
	}
	rp.sp.put(root, 0, req, "replay.range", start, time.Now())
	return n
}

func sameAnswer(got query.Result, want outcome) bool {
	return math.Float64bits(got.Radius) == math.Float64bits(want.radius) && hashRows(got.Neighbors) == want.hash
}

func replayServing(rc runCtx, w servingSpec, in *servingInputs, rec servingRecord, r *Result) error {
	sp := rc.spans
	dir := filepath.Join(rc.tmp, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rp := newReplica(sp, w, in.dim, dir)
	defer rp.close()
	req := int64(0)
	next := func() int64 { req++; return req }

	// What NewServer does: deal the initial points round-robin, then
	// publish every shard.
	for _, p := range in.points {
		if err := rp.insert(p, next(), false); err != nil {
			return err
		}
	}
	load := sp.total("rtree.insert")
	root, start := sp.newID(), time.Now()
	all := make([]int, w.shards)
	for i := range all {
		all[i] = i
	}
	if err := rp.publish(root, next(), all, true); err != nil {
		return err
	}
	sp.put(root, 0, req, "replay.setup", start, time.Now())
	build := load + sp.total("rtree.flatten")

	// The k-NN requests to replay, with the served answer each must
	// reproduce. Without inserts every served answer is comparable;
	// with inserts only the gate's, asked after the final Flush, are.
	type check struct {
		q    int32
		want *outcome
	}
	var checks []check
	for i := range rec.gateKNN {
		checks = append(checks, check{rec.gateKNN[i].arg, &rec.gateKNN[i]})
	}
	if rec.inserted == 0 {
		served := sample(rec.served, replayN)
		for i := range served {
			checks = append(checks, check{served[i].arg, &served[i]})
		}
	} else {
		for _, p := range in.inserts {
			if err := rp.insert(p, next(), true); err != nil {
				return err
			}
		}
		if err := rp.flush(next()); err != nil {
			return err
		}
		if rp.bytes != rec.bytes {
			return fmt.Errorf("replay: %d durable bytes written after set-up, the server wrote %d", rp.bytes, rec.bytes)
		}
		for q := len(checks); q < replayN; q++ {
			checks = append(checks, check{q: int32(q)})
		}
	}
	var leaf, dirs float64
	for _, c := range checks {
		res := rp.knn(in.queries[c.q], next())
		if c.want != nil && !sameAnswer(res, *c.want) {
			return fmt.Errorf("replay: k-NN of query %d gives radius %v, the server answered %v (or other neighbors)", c.q, res.Radius, c.want.radius)
		}
		leaf += float64(res.LeafAccesses)
		dirs += float64(res.DirAccesses)
	}
	for i, want := range rec.gateCnt {
		if got := rp.rangeCount(in.queries[i], in.radius, next()); got != want {
			return fmt.Errorf("replay: range count of query %d is %d, the server answered %d", i, got, want)
		}
	}
	qs := make([][]float64, min(len(checks), replayN))
	for i := range qs {
		qs[i] = in.queries[checks[i].q]
	}
	b16 := batchPerQuery(sp, rp.flat, qs, next)

	// rtree
	r.layer("rtree.build_ms", ms(build), "ms")
	r.layer("rtree.load_s", load.Seconds(), "s")
	ins := sp.durations("rtree.insert")
	r.layer("rtree.insert_p50_us", quantile(ins, 0.5), "us")
	r.withSamples(len(ins), 0.5)
	r.layer("rtree.insert_p99_us", quantile(ins, 0.99), "us")
	r.withSamples(len(ins), 0.99)
	r.layer("rtree.flatten_ms", median(sp.durations("rtree.flatten"))/1000, "ms")
	// query
	total := sp.perReq("query.knn_flat", "query.merge")
	q50 := quantile(total, 0.5)
	r.layer("query.knn_p50_us", q50, "us")
	r.withSamples(len(total), 0.5)
	r.layer("query.knn_p99_us", quantile(total, 0.99), "us")
	r.withSamples(len(total), 0.99)
	if w.shards == 1 {
		r.layer("query.knn_b1_p50_us", q50, "us")
		r.withSamples(len(total), 0.5)
		r.layer("query.knn_b1_p99_us", quantile(total, 0.99), "us")
		r.withSamples(len(total), 0.99)
	} else {
		r.layer("query.knn_shards_p50_us", median(sp.perReq("query.knn_flat")), "us")
		r.layer("query.merge_p50_us", median(sp.durations("query.merge")), "us")
	}
	r.layer("query.knn_b16_us_per_q", b16, "us")
	r.layer("query.leaf_per_q", leaf/float64(len(checks)), "count")
	r.layer("query.dir_per_q", dirs/float64(len(checks)), "count")
	r.layer("query.range_p50_us", median(sp.perReq("query.range")), "us")
	// What the serving layer adds to a search: the end-to-end median
	// minus the replayed search's.
	if e2e, ok := r.metric("knn_p50_ms"); ok {
		r.layer("serve.handoff_p50_us", e2e*1000-q50, "us")
		r.layer("unattributed_p50_ms", e2e-q50/1000, "ms")
	}
	// pager, per publication
	if rp.path != "" {
		write, atomic := median(sp.durations("pager.write")), median(sp.durations("pager.write_atomic"))
		r.layer("pager.write_ms", write/1000, "ms")
		r.layer("pager.write_atomic_ms", atomic/1000, "ms")
		r.layer("pager.sync_ms", (atomic-write)/1000, "ms")
		for _, name := range []string{"summary", "manifest", "mmap_open", "unmap"} {
			if d := sp.durations("pager." + name); len(d) > 0 {
				r.layer("pager."+name+"_ms", median(d)/1000, "ms")
			}
		}
		if rp.pubs > 0 {
			r.layer("pager.kb_per_pub", float64(rp.bytes)/1024/float64(rp.pubs), "KB")
		}
	}
	return nil
}

func replayPredict(rc runCtx, w predictSpec, points [][]float64, opts hdidx.EstimateOptions, truth float64, r *Result) error {
	sp := rc.spans
	dim := len(points[0])
	g := geometry(dim)

	// What EstimateKNN does first: stage the dataset on the simulated
	// disk.
	stage := sp.time(0, 0, "disk.stage", func() {
		d := disk.NewBuffered(disk.DefaultParams().WithPageBytes(g.PageBytes), disk.BufferConfig{})
		pf := disk.NewPointFile(d, dim, len(points))
		pf.AppendAll(points)
		d.DropBuffers()
		d.ResetCounters()
	})

	// The ground truth of MeasureKNNAccesses: the same query points, their
	// k-NN spheres from one scan of the data, the full bulk-loaded tree,
	// the leaves each sphere intersects.
	rng := rand.New(rand.NewSource(opts.Seed))
	qs := make([][]float64, opts.Queries)
	for i := range qs {
		qs[i] = points[rng.Intn(len(points))]
	}
	var spheres []query.Sphere
	scan := sp.time(0, 0, "query.spheres", func() { spheres = query.ComputeSpheres(points, qs, opts.K) })
	var tree *rtree.Tree
	own := append([][]float64(nil), points...)
	build := sp.time(0, 0, "rtree.build", func() { tree = rtree.Build(own, rtree.ParamsForGeometry(g)) })
	var acc []float64
	measure := sp.time(0, 0, "query.measure", func() { acc = query.MeasureLeafAccesses(tree, spheres) })
	mean := stats.Mean(acc)
	if math.Float64bits(mean) != math.Float64bits(truth) {
		return fmt.Errorf("replay: ground truth %v leaf accesses per query, MeasureKNNAccesses gave %v", mean, truth)
	}

	// The searches the prediction stands for: each workload query as a
	// k-NN search of the index the predictor models. Each must find the
	// sphere the scan computed.
	var ft *rtree.FlatTree
	flatten := sp.time(0, 0, "rtree.flatten", func() { ft = tree.Flatten() })
	dirs := 0
	for i, q := range qs {
		var res query.Result
		sp.time(0, int64(i+1), "query.knn_flat", func() { res = query.KNNSearchFlat(ft, q, opts.K) })
		if math.Float64bits(res.Radius) != math.Float64bits(spheres[i].Radius) {
			return fmt.Errorf("replay: k-NN search of query %d reaches radius %v, the scan found %v", i, res.Radius, spheres[i].Radius)
		}
		dirs += res.DirAccesses
	}
	req := int64(len(qs))
	b16 := batchPerQuery(sp, []*rtree.FlatTree{ft}, qs, func() int64 { req++; return req })

	per := sp.perReq("query.knn_flat")
	r.layer("rtree.build_ms", ms(build), "ms")
	r.layer("rtree.flatten_ms", ms(flatten), "ms")
	r.layer("query.knn_p50_us", quantile(per, 0.5), "us")
	r.withSamples(len(per), 0.5)
	r.layer("query.knn_p99_us", quantile(per, 0.99), "us")
	r.withSamples(len(per), 0.99)
	r.layer("query.knn_b16_us_per_q", b16, "us")
	r.layer("query.leaf_per_q", mean, "count")
	r.layer("query.dir_per_q", float64(dirs)/float64(len(qs)), "count")
	r.layer("query.spheres_ms", ms(scan), "ms")
	r.layer("query.measure_ms", ms(measure), "ms")
	r.layer("disk.stage_ms", ms(stage), "ms")
	return nil
}

// observeBench times obs.LatencySketch.Observe — the serving layer's
// per-request recording — from one goroutine and from GOMAXPROCS at
// once.
func observeBench(r *Result) {
	const n = 1 << 20
	per := func(workers int) float64 {
		s := obs.NewLatencySketch(0)
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/workers; i++ {
					s.Observe(time.Duration(i))
				}
			}()
		}
		wg.Wait()
		return float64(time.Since(start)) / float64(n/workers)
	}
	r.layer("obs.observe_ns", per(1), "ns")
	r.layer("obs.observe_contended_ns", per(runtime.GOMAXPROCS(0)), "ns")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
