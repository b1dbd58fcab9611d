package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hdidx"
	"hdidx/internal/dataset"
)

const (
	k = 21 // the paper's k
	// queryPool is the number of distinct query vectors per run; requests
	// draw from it, so a long run repeats queries (the server has no
	// result cache for that to favour).
	queryPool = 4096
	// gateChecks is how many k-NN and range answers the gate asks for
	// after the load and checks against brute force.
	gateChecks = 256
	// lateLimit and lateShare mark a read-only run invalid when more
	// than lateShare of its requests were sent more than lateLimit late:
	// the generator, not the server, set those latencies.
	lateLimit = 5 * time.Millisecond
	lateShare = 0.01
)

// servingSpec is one serving workload: an hdidx.Server over the
// TEXTURE60 stand-in, driven through the facade only.
type servingSpec struct {
	name         string
	scale        float64 // TEXTURE60 stand-in cardinality scale of the initial points
	shards       int
	flattenEvery int  // 0 keeps the server default
	durable      bool // publish to snapshot files, served from mmap
	// rates are the open-loop requests per second, indexed by opKind.
	rates [3]float64
	// openShare of the measured time runs open loop; the rest runs a
	// closed loop of readers (inserts keep their open-loop rate).
	openShare float64
	readers   int
	// p99Bound is the bound of knn_p99_ms; fsync makes the tail of
	// durable workloads vary more between runs.
	p99Bound float64
	setups   int
}

// dataSeed generates every workload's points. The data set is fixed and
// the run's seed varies what is sent to it — queries, arrival times,
// inserted points, the predictor's samples — so that run-to-run spreads
// do not include the variation between data sets.
const dataSeed = 1

// runCtx is what every workload run gets from main.
type runCtx struct {
	seed     int64
	measured time.Duration
	spans    *spanLog // nil unless tracing
	tmp      string   // temporary directory, removed after the run
}

// rng returns the random stream number stream of the run's seed; each
// kind of input draws from its own stream.
func (rc runCtx) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(rc.seed*7919 + stream))
}

// servingInputs is everything a serving run sends, generated before
// any clock starts.
type servingInputs struct {
	points  [][]float64 // initial points
	queries [][]float64 // the query pool
	inserts [][]float64 // the insert stream, in send order
	radius  float64     // range query radius
	dim     int

	warm, open, closedIns       []op
	warmDur, openDur, closedDur time.Duration
}

// jitter draws n points near the data: a random data point plus
// N(0, sigma²) noise per coordinate, so dense regions get more of them
// (the paper's density-biased queries).
func jitter(points [][]float64, n int, sigma float64, rng *rand.Rand) [][]float64 {
	dim := len(points[0])
	out := make([][]float64, n)
	for i := range out {
		p := append([]float64(nil), points[rng.Intn(len(points))]...)
		for d := 0; d < dim; d++ {
			p[d] += sigma * rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

func (w servingSpec) inputs(rc runCtx) *servingInputs {
	in := &servingInputs{}
	in.points = dataset.Texture60.Scaled(w.scale).Generate(rand.New(rand.NewSource(dataSeed))).Points
	in.dim = len(in.points[0])
	in.queries = jitter(in.points, queryPool, 0.02, rc.rng(1))
	in.warmDur = rc.measured / 10
	in.openDur = time.Duration(float64(rc.measured) * w.openShare)
	in.closedDur = rc.measured - in.openDur
	sr := rc.rng(2)
	var next int32
	in.warm = schedule(sr, in.warmDur, w.rates, queryPool, &next)
	in.open = schedule(sr, in.openDur, w.rates, queryPool, &next)
	in.closedIns = schedule(sr, in.closedDur, [3]float64{opInsert: w.rates[opInsert]}, queryPool, &next)
	in.inserts = jitter(in.points, int(next), 0.01, rc.rng(3))
	// The range radius is the median k-NN distance of 200 pool queries,
	// so a range query returns about k points.
	radii := make([]float64, 200)
	for i := range radii {
		radii[i] = bruteRadius(in.points, in.queries[i], k)
	}
	in.radius = median(radii)
	return in
}

// closedOp is the i-th closed-loop request: k-NN, with range queries
// mixed in at the open loop's ratio.
func (w servingSpec) closedOp(i int) op {
	o := op{kind: opKNN, arg: int32(i % queryPool)}
	if w.rates[opRange] > 0 {
		every := int(math.Round((w.rates[opKNN] + w.rates[opRange]) / w.rates[opRange]))
		if i%every == every-1 {
			o.kind = opRange
		}
	}
	return o
}

func (w servingSpec) config(rc runCtx, i int) (hdidx.ServeConfig, error) {
	cfg := hdidx.ServeConfig{Shards: w.shards, FlattenEvery: w.flattenEvery}
	if w.durable {
		dir := filepath.Join(rc.tmp, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return cfg, err
		}
		cfg.SnapshotPath = filepath.Join(dir, "serve.hdsn")
	}
	return cfg, nil
}

// setup starts the server n times and keeps the last; it returns the
// wall time of each start.
func (w servingSpec) setup(in *servingInputs, rc runCtx, n int) (*hdidx.Server, []float64, error) {
	var srv *hdidx.Server
	var secs []float64
	for i := 0; i < n; i++ {
		if srv != nil {
			srv.Close()
			srv = nil
		}
		runtime.GC()
		debug.FreeOSMemory()
		cfg, err := w.config(rc, i)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		s, err := hdidx.NewServer(in.points, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("NewServer: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		srv = s
	}
	return srv, secs, nil
}

// firstErr keeps the first error any goroutine reports.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// exec returns the function that sends one request to srv. Backpressure
// (ErrOverloaded, ErrDeadline) fails the request and is never retried;
// any other error is kept in fatal and aborts the run. A traced request
// records a root span, and its latency includes recording it.
func (w servingSpec) exec(srv *hdidx.Server, in *servingInputs, spans *spanLog, fatal *firstErr) execFn {
	return func(o op, due time.Time, traced bool) outcome {
		out := outcome{kind: o.kind, arg: o.arg, traced: traced}
		start := time.Now()
		var err error
		var nbrs [][]float64
		var st hdidx.QueryStats
		switch o.kind {
		case opKNN:
			nbrs, st, err = srv.KNN(in.queries[o.arg], k)
		case opRange:
			out.count, err = srv.RangeCount(in.queries[o.arg], in.radius)
		case opInsert:
			err = srv.Insert(in.inserts[o.arg])
		}
		if traced {
			id := spans.newID()
			spans.put(id, 0, id, "facade."+opNames[o.kind], start, time.Now())
		}
		out.lat = time.Since(due)
		switch {
		case errors.Is(err, hdidx.ErrOverloaded) || errors.Is(err, hdidx.ErrDeadline):
			out.failed = true
		case err != nil:
			out.failed = true
			fatal.set(fmt.Errorf("%s: %w", opNames[o.kind], err))
		case o.kind == opKNN:
			out.radius, out.leaf, out.hash = st.Radius, st.LeafAccesses, hashRows(nbrs)
		}
		return out
	}
}

// servingRecord is what a serving run keeps for the replay to compare
// against and to time on.
type servingRecord struct {
	served   []outcome // k-NN answers served under load, on workloads without inserts
	gateKNN  []outcome // the gate's k-NN answers, for pool queries 0..gateChecks-1
	gateCnt  []int     // the gate's range counts, same queries
	inserted int       // points inserted during the run
	bytes    int64     // durable bytes written after set-up, through the final Flush
	backlog  int64     // superseded snapshots not yet retired after the gate
}

func (w servingSpec) run(rc runCtx) (Result, error) {
	r := Result{Workload: w.name}
	in := w.inputs(rc)
	setups := w.setups
	if rc.spans != nil {
		setups = 1 // the traced run reports no setup_s
	}
	srv, setupS, err := w.setup(in, rc, setups)
	if err != nil {
		return r, err
	}
	defer srv.Close()
	booted := srv.Stats()

	var fatal firstErr
	do := w.exec(srv, in, rc.spans, &fatal)
	traced := rc.spans != nil
	phase{sched: in.warm, dur: in.warmDur}.run(do)
	measured := srv.Stats()
	open := phase{sched: in.open, dur: in.openDur, trace: traced}.run(do)
	afterOpen := srv.Stats()
	closed := phase{sched: in.closedIns, dur: in.closedDur, readers: w.readers, closed: w.closedOp, trace: traced}.run(do)
	if err := fatal.get(); err != nil {
		return r, err
	}
	if err := srv.Flush(); err != nil {
		return r, fmt.Errorf("Flush: %w", err)
	}
	final := srv.Stats()
	// The peak so far is the server's: set-up and load. What follows is
	// the benchmark's own bookkeeping and checks.
	rss := peakRSSMB()

	served := append(append(append([]outcome(nil), open.open...), closed.open...), closed.closed...)
	for _, o := range served {
		r.Attempted++
		if o.failed {
			r.Failed++
		}
	}
	rec := servingRecord{inserted: len(in.inserts), bytes: final.BytesWritten - booted.BytesWritten}
	if err := w.gate(srv, in, served, &rec); err != nil {
		return r, err
	}

	// End-to-end metrics. Latencies come from the open loop, where each
	// request is timed from its scheduled send; capacity from the closed
	// loop.
	lat := latencies(open.open)
	answered := 0
	for _, o := range closed.closed {
		if !o.failed {
			answered++
		}
	}
	capacity := float64(answered) / closed.closedElapsed.Seconds()
	if !traced {
		r.headline("setup_s", median(setupS), "s", lower, 0.25)
		r.withSamples(len(setupS), 0.5)
	}
	r.headline("p50_ms", quantile(lat, 0.5), "ms", lower, 0.25)
	r.withSamples(len(lat), 0.5)
	r.headline("capacity_per_s", capacity, "1/s", higher, 0.25)
	r.withSamples(answered, 0)
	r.e2e("failed_pct", 100*float64(r.Failed)/float64(r.Attempted), "%", lower, 0)
	knn := latencies(open.open, opKNN)
	r.e2e("knn_p50_ms", quantile(knn, 0.5), "ms", lower, 0.10)
	r.withSamples(len(knn), 0.5)
	r.e2e("knn_p99_ms", quantile(knn, 0.99), "ms", lower, w.p99Bound)
	r.withSamples(len(knn), 0.99)
	if w.rates[opRange] == 0 {
		r.e2e("capacity_qps", capacity, "1/s", higher, 0.10)
	} else {
		rng := latencies(open.open, opRange)
		r.e2e("range_p50_ms", quantile(rng, 0.5), "ms", lower, 0.10)
		r.withSamples(len(rng), 0.5)
		r.e2e("range_p99_ms", quantile(rng, 0.99), "ms", lower, 0.30)
		r.withSamples(len(rng), 0.99)
	}
	if w.rates[opInsert] > 0 {
		ins := latencies(open.open, opInsert)
		r.e2e("insert_p50_ms", quantile(ins, 0.5), "ms", lower, 0.10)
		r.withSamples(len(ins), 0.5)
		r.e2e("insert_p99_ms", quantile(ins, 0.99), "ms", lower, 0.20)
		r.withSamples(len(ins), 0.99)
		userBytes := float64(rec.inserted * in.dim * 8)
		r.e2e("write_amp", float64(rec.bytes)/userBytes, "ratio", lower, 0.01)
	}

	// Per-layer metrics the run measures without a replay: the server's
	// own counters and sketch, and how late the generator sent.
	late := durs(open.late, time.Microsecond)
	tooLate := 0
	for _, l := range open.late {
		if l > lateLimit {
			tooLate++
		}
	}
	r.layer("gen.late_p50_us", quantile(late, 0.5), "us")
	r.withSamples(len(late), 0.5)
	r.layer("gen.late_p99_ms", quantile(late, 0.99)/1000, "ms")
	r.withSamples(len(late), 0.99)
	r.layer("serve.sketch_knn_p99_ms", float64(afterOpen.KNN.P99)/float64(time.Millisecond), "ms")
	r.layer("serve.overloads", float64(final.Overloads-measured.Overloads), "count")
	r.layer("serve.deadlines", float64(final.Deadlines-measured.Deadlines), "count")
	if pubs := final.Publications - booted.Publications; pubs > 0 {
		r.layer("serve.pubs", float64(pubs), "count")
		r.layer("serve.flatten_ms_per_pub", float64(final.FlattenTime-booted.FlattenTime)/float64(time.Millisecond)/float64(pubs), "ms")
		if w.durable {
			r.layer("serve.kb_per_pub", float64(rec.bytes)/1024/float64(pubs), "KB")
		}
	}
	r.layer("serve.retire_backlog", float64(rec.backlog), "count")

	if traced {
		if err := replayServing(rc, w, in, rec, &r); err != nil {
			return r, err
		}
		observeBench(&r)
		overhead(&r, append(open.open, closed.closed...), opKNN)
	}
	r.headline("peak_rss_mb", rss, "MB", lower, 0.25)
	if w.rates[opInsert] == 0 && float64(tooLate) > lateShare*float64(len(open.late)) {
		r.Invalid = fmt.Sprintf("%d of %d requests sent more than %v late", tooLate, len(open.late), lateLimit)
	}
	r.Correct = true
	return r, nil
}

// gate checks served answers against brute force over the points the
// server holds, and the server's snapshot accounting. On a workload
// without inserts, an even sample of the k-NN answers served under load
// is checked too. It records the checked answers in rec.
func (w servingSpec) gate(srv *hdidx.Server, in *servingInputs, served []outcome, rec *servingRecord) error {
	points := in.points
	if rec.inserted > 0 {
		points = append(append([][]float64(nil), in.points...), in.inserts...)
	} else {
		for _, o := range served {
			if o.kind == opKNN && !o.failed {
				rec.served = append(rec.served, o)
			}
		}
		want := map[int32]float64{}
		for _, o := range sample(rec.served, gateChecks) {
			r, ok := want[o.arg]
			if !ok {
				r = bruteRadius(points, in.queries[o.arg], k)
				want[o.arg] = r
			}
			if math.Float64bits(o.radius) != math.Float64bits(r) {
				return fmt.Errorf("gate: k-NN radius %v served for query %d, brute force gives %v", o.radius, o.arg, r)
			}
		}
	}
	for i := 0; i < gateChecks; i++ {
		q := in.queries[i]
		nbrs, st, err := srv.KNN(q, k)
		if err != nil {
			return fmt.Errorf("gate: k-NN: %w", err)
		}
		if r := bruteRadius(points, q, k); len(nbrs) != k || math.Float64bits(st.Radius) != math.Float64bits(r) {
			return fmt.Errorf("gate: k-NN of query %d: %d neighbors at radius %v, brute force gives %d at %v", i, len(nbrs), st.Radius, k, r)
		}
		rec.gateKNN = append(rec.gateKNN, outcome{kind: opKNN, arg: int32(i), radius: st.Radius, leaf: st.LeafAccesses, hash: hashRows(nbrs)})
		n, err := srv.RangeCount(q, in.radius)
		if err != nil {
			return fmt.Errorf("gate: range: %w", err)
		}
		if want := bruteCount(points, q, in.radius); n != want {
			return fmt.Errorf("gate: range count of query %d is %d, brute force gives %d", i, n, want)
		}
		rec.gateCnt = append(rec.gateCnt, n)
	}
	// Read after the gate's queries: every batch that could still pin a
	// superseded snapshot has released it by the time a later query was
	// answered.
	st := srv.Stats()
	if st.Points != len(points) {
		return fmt.Errorf("gate: server holds %d points after Flush, want %d", st.Points, len(points))
	}
	if rec.backlog = st.Publications - int64(w.shards) - st.RetiredSnapshots; rec.backlog != 0 {
		return fmt.Errorf("gate: %d snapshots retired after Flush, want publications (%d) - shards (%d)", st.RetiredSnapshots, st.Publications, w.shards)
	}
	return nil
}

// sample returns at most n of outs, evenly spaced.
func sample(outs []outcome, n int) []outcome {
	if len(outs) <= n {
		return outs
	}
	s := make([]outcome, n)
	for i := range s {
		s[i] = outs[i*len(outs)/n]
	}
	return s
}

// overhead reports trace.overhead_pct: how much slower the median
// traced request of the given kind is than the median untraced one.
// Requests alternate between the two within the same run.
func overhead(r *Result, outs []outcome, kind opKind) {
	var on, off []outcome
	for _, o := range outs {
		if o.kind != kind {
			continue
		}
		if o.traced {
			on = append(on, o)
		} else {
			off = append(off, o)
		}
	}
	a, b := quantile(latencies(on), 0.5), quantile(latencies(off), 0.5)
	r.layer("trace.overhead_pct", 100*(a-b)/b, "%")
}
