package obs

import (
	"io"
	"sync"

	"hdidx/internal/disk"
)

// Registry is a thread-safe in-process collection of traces. Code that
// has no channel to hand a trace back to its caller (experiment
// drivers, measurement helpers) registers into a registry; the CLIs
// enable the default registry under their -trace flag and dump it at
// the end of the run.
type Registry struct {
	mu      sync.Mutex
	enabled bool
	traces  []*Trace
}

// Default is the process-wide registry the -trace CLI flags enable.
var Default = &Registry{}

// SetEnabled turns collection on or off. While disabled, TraceIfEnabled
// returns nil so instrumented code pays nothing.
func (r *Registry) SetEnabled(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enabled = on
}

// Enabled reports whether the registry is collecting.
func (r *Registry) Enabled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.enabled
}

// Add registers a trace regardless of the enabled flag.
func (r *Registry) Add(t *Trace) {
	if t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces = append(r.traces, t)
}

// Traces returns a snapshot of the registered traces in registration
// order.
func (r *Registry) Traces() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, len(r.traces))
	copy(out, r.traces)
	return out
}

// Reset drops all registered traces (the enabled flag is unchanged).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces = nil
}

// WriteText renders every registered trace.
func (r *Registry) WriteText(w io.Writer) {
	for _, t := range r.Traces() {
		t.WriteText(w)
	}
}

// TraceIfEnabled returns a new trace registered in the default
// registry, or nil when the registry is disabled — so call sites can
// unconditionally thread the result into instrumented code.
func TraceIfEnabled(name string, d *disk.Disk) *Trace {
	if !Default.Enabled() {
		return nil
	}
	t := New(name, d)
	Default.Add(t)
	return t
}
