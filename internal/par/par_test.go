package par

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// forceWorkers installs a worker override for the duration of the test.
// The container may expose a single CPU; forcing the count is the only
// way to exercise the concurrent paths deterministically.
func forceWorkers(t *testing.T, n int) {
	t.Helper()
	prev := SetWorkers(n)
	t.Cleanup(func() { SetWorkers(prev) })
}

func TestWorkersDefaultAndOverride(t *testing.T) {
	prev := SetWorkers(0)
	defer SetWorkers(prev)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if old := SetWorkers(5); old != 0 {
		t.Fatalf("SetWorkers returned %d, want 0", old)
	}
	if got := Workers(); got != 5 {
		t.Fatalf("Workers() = %d after SetWorkers(5)", got)
	}
	if old := SetWorkers(-3); old != 5 {
		t.Fatalf("SetWorkers returned %d, want 5", old)
	}
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d after reset, want %d", got, want)
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		forceWorkers(t, workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			seen := make([]atomic.Int32, n)
			For(n, func(i int) { seen[i].Add(1) })
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestChunksDisjointCover(t *testing.T) {
	forceWorkers(t, 4)
	const n = 1003
	seen := make([]atomic.Int32, n)
	Chunks(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
			return
		}
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d covered %d times", i, got)
		}
	}
}

// TestForPropagatesPanic is the regression test for the old
// parallelFor swallowing worker panics (the process died with a bare
// goroutine stack). The panic must resurface on the caller goroutine
// as a *WorkerPanic carrying the worker's stack.
func TestForPropagatesPanic(t *testing.T) {
	// With one worker the loop runs inline on the caller, so the raw
	// panic propagates directly — nothing to recover or wrap.
	forceWorkers(t, 1)
	var recovered interface{}
	func() {
		defer func() { recovered = recover() }()
		For(100, func(i int) {
			if i == 37 {
				panic("boom at 37")
			}
		})
	}()
	if recovered != "boom at 37" {
		t.Fatalf("workers=1: recovered %v, want the raw panic value", recovered)
	}

	// With a real fan-out the panic crosses goroutines and must arrive
	// as a *WorkerPanic carrying the worker's stack.
	forceWorkers(t, 4)
	recovered = nil
	func() {
		defer func() { recovered = recover() }()
		For(100, func(i int) {
			if i == 37 {
				panic("boom at 37")
			}
		})
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *WorkerPanic", recovered, recovered)
	}
	if wp.Value != "boom at 37" {
		t.Fatalf("panic value %v", wp.Value)
	}
	if !strings.Contains(string(wp.Stack), "TestForPropagatesPanic") {
		t.Fatalf("worker stack does not mention the panic site:\n%s", wp.Stack)
	}
	if !strings.Contains(wp.Error(), "boom at 37") {
		t.Fatalf("Error() = %q", wp.Error())
	}
}

// TestNestedPanicKeepsInnermostStack checks that a *WorkerPanic
// crossing a second fan-out boundary is passed through unchanged, so
// the reported stack is the goroutine that actually panicked.
func TestNestedPanicKeepsInnermostStack(t *testing.T) {
	forceWorkers(t, 4)
	var recovered interface{}
	func() {
		defer func() { recovered = recover() }()
		For(4, func(i int) {
			For(8, func(j int) {
				if i == 2 && j == 3 {
					panic("inner boom")
				}
			})
		})
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T, want *WorkerPanic", recovered)
	}
	if wp.Value != "inner boom" {
		t.Fatalf("panic value %v, want the inner value", wp.Value)
	}
	if inner, nested := wp.Value.(*WorkerPanic); nested {
		t.Fatalf("WorkerPanic wraps another WorkerPanic: %v", inner)
	}
}

func TestFirstErrorIsLowestIndex(t *testing.T) {
	forceWorkers(t, 4)
	errLow := &WorkerPanic{Value: "low"}
	errHigh := &WorkerPanic{Value: "high"}
	for trial := 0; trial < 20; trial++ {
		err := FirstError(50, func(i int) error {
			switch i {
			case 11:
				return errLow
			case 40:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("trial %d: FirstError = %v, want the index-11 error", trial, err)
		}
	}
	if err := FirstError(10, func(int) error { return nil }); err != nil {
		t.Fatalf("FirstError with no failures = %v", err)
	}
}

func TestGroupForkJoin(t *testing.T) {
	forceWorkers(t, 4)
	g := NewGroup()
	if g == nil {
		t.Fatal("NewGroup returned nil with 4 workers")
	}
	const forks = 64
	var sum atomic.Int64
	joins := make([]func(), forks)
	for i := 0; i < forks; i++ {
		i := i
		joins[i] = g.Fork(func() { sum.Add(int64(i)) })
	}
	for _, join := range joins {
		join()
	}
	if want := int64(forks * (forks - 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestGroupNilRunsInline(t *testing.T) {
	forceWorkers(t, 1)
	if g := NewGroup(); g != nil {
		t.Fatalf("NewGroup with 1 worker = %v, want nil", g)
	}
	var g *Group
	ran := false
	join := g.Fork(func() { ran = true })
	if !ran {
		t.Fatal("nil Group.Fork did not run inline before returning")
	}
	join()
}

func TestGroupForkPanicSurfacesAtJoin(t *testing.T) {
	forceWorkers(t, 4)
	g := NewGroup()
	// Issue enough forks that at least one lands on a goroutine.
	joins := make([]func(), 8)
	for i := range joins {
		i := i
		joins[i] = g.Fork(func() {
			if i == 5 {
				panic("fork boom")
			}
		})
	}
	var recovered interface{}
	func() {
		defer func() { recovered = recover() }()
		for _, join := range joins {
			join()
		}
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *WorkerPanic", recovered, recovered)
	}
	if wp.Value != "fork boom" {
		t.Fatalf("panic value %v", wp.Value)
	}
}

func TestGroupBoundsConcurrency(t *testing.T) {
	forceWorkers(t, 3) // 2 spare slots + the caller
	g := NewGroup()
	var inFlight, peak atomic.Int64
	joins := make([]func(), 32)
	for i := range joins {
		joins[i] = g.Fork(func() {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			inFlight.Add(-1)
		})
	}
	for _, join := range joins {
		join()
	}
	// The caller runs saturated forks inline, so at most 2 goroutine
	// forks plus the caller itself can be inside f at once.
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d with 3 workers", p)
	}
}
