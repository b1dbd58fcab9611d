package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type opKind uint8

const (
	opKNN opKind = iota
	opRange
	opInsert
)

var opNames = [...]string{"knn", "range", "insert"}

// op is one request: when it is due (from the start of its phase), its
// kind, and its input — an index into the query pool, or into the
// insert stream.
type op struct {
	at   time.Duration
	kind opKind
	arg  int32
}

// outcome is what one request returned. lat runs from the request's
// scheduled send time in the open loop, and from its send in the
// closed loop.
type outcome struct {
	kind   opKind
	arg    int32
	lat    time.Duration
	failed bool
	traced bool
	radius float64 // k-NN: distance to the k-th neighbor
	hash   uint64  // k-NN: hash of the neighbors' coordinates
	leaf   int     // k-NN: leaf pages read
	count  int     // range: points inside the sphere
}

// poisson returns the send times of a Poisson process with the given
// rate over [0, dur), conditioned on its expected count: n = rate·dur
// arrivals placed at normalized exponential spacings, which are
// distributed like the order statistics of n uniform times. Fixing the
// count makes every run offer exactly the target load.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	gaps := make([]float64, n+1)
	sum := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	out := make([]time.Duration, n)
	acc := 0.0
	for i := range out {
		acc += gaps[i]
		out[i] = time.Duration(acc / sum * float64(dur))
	}
	return out
}

// schedule merges one Poisson stream per request kind (rates are per
// second, indexed by opKind) into one time-ordered list. Reads pick a
// random query of the pool; inserts take the next points of the insert
// stream in send order, continuing from *nextInsert.
func schedule(rng *rand.Rand, dur time.Duration, rates [3]float64, pool int, nextInsert *int32) []op {
	var ops []op
	for kind, rate := range rates {
		for _, at := range poisson(rng, rate, dur) {
			o := op{at: at, kind: opKind(kind)}
			if o.kind != opInsert {
				o.arg = int32(rng.Intn(pool))
			}
			ops = append(ops, o)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	for i := range ops {
		if ops[i].kind == opInsert {
			ops[i].arg = *nextInsert
			*nextInsert++
		}
	}
	return ops
}

// execFn performs one request and reports its outcome, timing it from
// due.
type execFn func(o op, due time.Time, traced bool) outcome

// phase is one stretch of load: an open-loop schedule, plus — when
// readers > 0 — a closed loop of that many readers, each sending its
// next request (closed(i) for the i-th request overall) as soon as the
// previous one returns, until dur has passed.
type phase struct {
	sched   []op
	dur     time.Duration
	readers int
	closed  func(i int) op
	trace   bool // record every other request with a root span
}

type phaseResult struct {
	open []outcome       // one per scheduled request, in schedule order
	late []time.Duration // how late the pacer sent each scheduled request
	// closed holds the closed-loop outcomes, and closedElapsed the time
	// from the phase start until the last of them returned.
	closed        []outcome
	closedElapsed time.Duration
}

// run drives the phase. The pacer sends the schedule from this
// goroutine, locked to its OS thread and sleeping with nanosleep, and
// starts one goroutine per read, so a slow answer never delays later
// sends; the server's admission queue is what bounds the reads in
// flight. Inserts go, in schedule order, to a single writer goroutine,
// which keeps the inserted sequence — and so the published bytes —
// deterministic; an insert that waits behind a slow one is still timed
// from its own scheduled send.
func (p phase) run(do execFn) phaseResult {
	res := phaseResult{open: make([]outcome, len(p.sched)), late: make([]time.Duration, len(p.sched))}
	start := time.Now()

	// Sized to the schedule so the pacer never blocks on the writer.
	inserts := make(chan int, len(p.sched))
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := range inserts {
			res.open[i] = do(p.sched[i], start.Add(p.sched[i].at), p.trace && i%2 == 0)
		}
	}()

	closedOut := make([][]outcome, p.readers)
	var readers sync.WaitGroup
	var seq atomic.Int64
	deadline := start.Add(p.dur)
	for r := 0; r < p.readers; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for time.Now().Before(deadline) {
				i := int(seq.Add(1) - 1)
				closedOut[r] = append(closedOut[r], do(p.closed(i), time.Now(), p.trace && i%2 == 0))
			}
		}(r)
	}

	var reads sync.WaitGroup
	runtime.LockOSThread()
	for i, o := range p.sched {
		due := start.Add(o.at)
		sleepUntil(due)
		res.late[i] = time.Since(due)
		if o.kind == opInsert {
			inserts <- i
			continue
		}
		reads.Add(1)
		go func(i int, o op, due time.Time) {
			defer reads.Done()
			res.open[i] = do(o, due, p.trace && i%2 == 0)
		}(i, o, due)
	}
	runtime.UnlockOSThread()
	close(inserts)

	readers.Wait()
	res.closedElapsed = time.Since(start)
	for _, outs := range closedOut {
		res.closed = append(res.closed, outs...)
	}
	reads.Wait()
	writer.Wait()
	return res
}

// latencies returns the latencies in milliseconds of the outcomes of
// the given kinds (all kinds when none is given); failed requests enter
// as +Inf.
func latencies(outs []outcome, kinds ...opKind) []float64 {
	var ms []float64
	for _, o := range outs {
		if len(kinds) > 0 && !hasKind(kinds, o.kind) {
			continue
		}
		if o.failed {
			ms = append(ms, math.Inf(1))
			continue
		}
		ms = append(ms, float64(o.lat)/float64(time.Millisecond))
	}
	return ms
}

func hasKind(kinds []opKind, k opKind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}
