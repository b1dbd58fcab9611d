// Package obs is a lightweight tracing and metrics layer for the
// prediction pipeline: named phase spans carrying wall-clock duration
// plus a disk.Counters delta, a thread-safe in-process registry, and a
// text reporter.
//
// The paper's core claim is a cost trade-off — the predictors are only
// worth using because they incur one to two orders of magnitude less
// I/O than building the index (Lang & Singh Section 4.6) — so every
// stage of the pipeline attributes its simulated-disk activity and
// wall time to a named phase. The per-phase I/O costs of one trace sum
// to the end-to-end cost as long as the spans do not overlap, which is
// how the predictors use them: spans are flat, never nested.
//
// The layer is allocation-frugal by design: a nil *Trace disables all
// recording, Span is a value type (no per-span allocation), and a
// phase is allocated once per distinct name per trace. Starting and
// ending a span costs two clock reads and two counter snapshots.
//
// All Trace methods are safe for concurrent use; counter reads are
// race-free because disk.Disk guards its counters (see Disk.Counters).
// Concurrent spans over one shared disk attribute correctly only if
// the goroutines touch disjoint phases of a single logical I/O stream;
// the predictors keep all disk access on the orchestrating goroutine,
// with parallelFor workers doing CPU-only work.
package obs

import (
	"sync"
	"time"

	"hdidx/internal/disk"
)

// Phase aggregates every span recorded under one name in a trace.
type Phase struct {
	// Name is the span name.
	Name string
	// Count is the number of spans accumulated into this phase.
	Count int
	// Wall is the total wall-clock time spent in the phase.
	Wall time.Duration
	// IO is the disk activity attributed to the phase. Phases that do
	// not overlap partition the trace's total I/O.
	IO disk.Counters
	// IOSeconds prices IO under the parameters of the trace's disk
	// (zero when the trace has no disk).
	IOSeconds float64
}

// Trace collects the phases of one operation (one prediction, one
// index build). The zero value is not usable; construct with New. A
// nil *Trace is valid and records nothing.
type Trace struct {
	name string
	d    *disk.Disk

	mu     sync.Mutex
	order  []string
	phases map[string]*Phase
}

// New returns a trace that snapshots d's counters around every span
// and prices them with d's parameters. d may be nil for CPU-only
// traces (spans then carry wall time only).
func New(name string, d *disk.Disk) *Trace {
	return &Trace{name: name, d: d, phases: make(map[string]*Phase)}
}

func (t *Trace) counters() disk.Counters {
	if t == nil || t.d == nil {
		return disk.Counters{}
	}
	return t.d.Counters()
}

// Span is one timed region. It is a value type: obtain one from
// Trace.Span, do the work, and call End. The zero Span (from a nil
// trace) is valid and End is a no-op.
type Span struct {
	t       *Trace
	name    string
	start   time.Time
	startIO disk.Counters
}

// Span starts a span under the given phase name. Spans with the same
// name accumulate into one phase. Safe on nil (returns a no-op span).
func (t *Trace) Span(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Now(), startIO: t.counters()}
}

// End stops the span and accumulates its wall time and counter delta
// into the trace. No-op on the zero Span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	io := s.t.counters().Sub(s.startIO)
	s.t.record(s.name, time.Since(s.start), io)
}

func (t *Trace) record(name string, wall time.Duration, io disk.Counters) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ph := t.phases[name]
	if ph == nil {
		ph = &Phase{Name: name}
		t.phases[name] = ph
		t.order = append(t.order, name)
	}
	ph.Count++
	ph.Wall += wall
	ph.IO = ph.IO.Add(io)
	if t.d != nil {
		ph.IOSeconds = ph.IO.CostSeconds(t.d.Params())
	}
}

// Phases returns a snapshot of the accumulated phases in first-start
// order. Safe on nil (returns nil).
func (t *Trace) Phases() []Phase {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Phase, len(t.order))
	for i, name := range t.order {
		out[i] = *t.phases[name]
	}
	return out
}

// TotalIOSeconds sums the priced I/O of every phase — the end-to-end
// cost when the phases partition the I/O.
func (t *Trace) TotalIOSeconds() float64 {
	var sum float64
	for _, ph := range t.Phases() {
		sum += ph.IOSeconds
	}
	return sum
}
