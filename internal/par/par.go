// Package par is the shared bounded worker-pool machinery of the
// repository: chunked parallel loops for CPU-bound index-range work
// (moved here from internal/query), a fork-join group for recursive
// divide-and-conquer fan-outs (the VAMSplit bulk loader), and a
// first-error runner (the experiment sweep scheduler).
//
// Every fan-out is bounded by Workers(): GOMAXPROCS by default, or the
// process-wide override installed by SetWorkers (the CLIs' -workers
// flag). That is the only width; no call carries its own, because a
// width never changes a result, only wall-clock time. Panics on worker
// goroutines are never swallowed or allowed to kill the process with a
// bare goroutine stack: each worker recovers, captures the panicking
// goroutine's stack, and the panic is re-raised on the caller
// goroutine as a *WorkerPanic carrying the original value and stack.
//
// Concurrency contract (shared with internal/obs): workers do CPU-only
// work; simulated-disk I/O and rand.Rand use stay on the orchestrating
// goroutine, or each task owns a private disk and RNG. rand.Rand is
// not safe for concurrent use and must never be reachable from two
// goroutines of one fan-out.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// chunksPerWorker controls the scheduling granularity of the chunked
// loops: the index range is cut into about chunksPerWorker chunks per
// worker, enough slack for dynamic load balancing (task costs vary
// with early-exit behavior) while keeping the scheduling cost at one
// atomic add per chunk instead of one channel send per index.
const chunksPerWorker = 8

// workerOverride holds the process-wide worker-count override
// installed by SetWorkers; 0 means "use GOMAXPROCS".
var workerOverride atomic.Int64

// Workers returns the effective fan-out width: the positive value last
// installed by SetWorkers, or GOMAXPROCS.
func Workers() int {
	if n := int(workerOverride.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers installs a process-wide worker-count override and returns
// the previous override (0 when none was set). n <= 0 removes the
// override, restoring the GOMAXPROCS default. The setting is global
// and meant for process startup (the CLIs' -workers flags) and for
// tests and benchmarks that compare widths; a fan-out reads it when it
// starts.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerOverride.Swap(int64(n)))
}

// WorkerPanic is a panic recovered on a pool worker, re-raised on the
// caller goroutine. Value is the original panic value and Stack the
// panicking goroutine's stack at recovery time, so the failure site is
// not lost when the panic crosses goroutines.
type WorkerPanic struct {
	Value interface{}
	Stack []byte
}

// Error renders the original panic value and its worker stack.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker panic: %v\n\nworker stack:\n%s", p.Value, p.Stack)
}

// capture runs f and converts a panic into a *WorkerPanic (nil when f
// returns normally). A panic that is already a *WorkerPanic — from a
// nested fan-out — is passed through so the innermost stack survives.
func capture(f func()) (wp *WorkerPanic) {
	defer func() {
		if v := recover(); v != nil {
			if inner, ok := v.(*WorkerPanic); ok {
				wp = inner
				return
			}
			wp = &WorkerPanic{Value: v, Stack: debug.Stack()}
		}
	}()
	f()
	return nil
}

// For runs f(i) for i in [0, n) on up to Workers() goroutines and
// waits for completion. Every index is visited exactly once, in no
// particular order. A panic in f is re-raised on the caller as a
// *WorkerPanic.
func For(n int, f func(int)) {
	Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// Chunks covers [0, n) with disjoint half-open ranges and runs f on
// them from up to Workers() goroutines, waiting for completion.
// Workers claim ranges from a shared atomic cursor, so the total
// scheduling overhead is O(workers + chunks), not O(n). Hot loops that
// want worker-local scratch (heaps, distance buffers) use this
// directly: allocate the scratch once per f invocation and reuse it
// across the range. A panic in f is re-raised on the caller as a
// *WorkerPanic with the worker's stack.
func Chunks(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	chunk := (n + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
	var cursor atomic.Int64
	var firstPanic atomic.Pointer[WorkerPanic]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			wp := capture(func() {
				for {
					hi := int(cursor.Add(int64(chunk)))
					lo := hi - chunk
					if lo >= n {
						return
					}
					if hi > n {
						hi = n
					}
					f(lo, hi)
				}
			})
			if wp != nil {
				firstPanic.CompareAndSwap(nil, wp)
			}
		}()
	}
	wg.Wait()
	if wp := firstPanic.Load(); wp != nil {
		panic(wp)
	}
}

// FirstError runs f(i) for i in [0, n) on up to Workers() goroutines
// and returns the lowest-index non-nil error (deterministic regardless
// of scheduling order), or nil.
func FirstError(n int, f func(int) error) error {
	errs := make([]error, n)
	For(n, func(i int) { errs[i] = f(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Group bounds a recursive fork-join fan-out (the VAMSplit bulk
// loader): Fork hands a subtask to a spare pool slot when one is free
// and runs it inline otherwise, so the total goroutine count stays at
// Workers() regardless of recursion depth. A nil *Group is valid and
// runs everything inline — the sequential path.
type Group struct {
	sem chan struct{}
}

// NewGroup returns a fork-join group with Workers()-1 spare slots
// (the caller goroutine is the first worker), or nil when Workers()
// is 1 — callers use the nil group as their sequential mode.
func NewGroup() *Group {
	w := Workers()
	if w <= 1 {
		return nil
	}
	return &Group{sem: make(chan struct{}, w-1)}
}

// Fork runs f, concurrently when a spare slot is free and inline
// otherwise, and returns a join function that waits for f and
// re-raises its panic (as a *WorkerPanic) on the joining goroutine —
// panics surface at join regardless of where f ran, so callers handle
// one failure site. Callers must invoke join before using anything f
// produced. On a nil group f runs inline with plain sequential panic
// semantics.
func (g *Group) Fork(f func()) (join func()) {
	if g == nil {
		f()
		return func() {}
	}
	select {
	case g.sem <- struct{}{}:
		done := make(chan *WorkerPanic, 1)
		go func() {
			wp := capture(f)
			<-g.sem
			done <- wp
		}()
		return func() {
			if wp := <-done; wp != nil {
				panic(wp)
			}
		}
	default:
		// Pool saturated: the caller goroutine does the work itself,
		// which also bounds the recursion's memory (no task queue).
		wp := capture(f)
		return func() {
			if wp != nil {
				panic(wp)
			}
		}
	}
}
