package experiments

import (
	"sync"

	"hdidx/internal/dataset"
)

// The sweep drivers run their independent rows as tasks on the shared
// worker pool (par.FirstError, which returns the lowest-index error, as
// the sequential loop would have reported first, and re-raises a
// task's panic on the caller). The scheduling contract that keeps
// every result identical regardless of execution order:
//
//   - Each task owns its row: it writes result slot i and nothing
//     else, so no synchronization of results is needed beyond the
//     pool's completion barrier.
//   - Each task that predicts stages its own simulated disk from the
//     shared dataset (workload.stage). The expensive state — generated
//     points, query spheres, measured ground truth, the full in-memory
//     index — is shared read-only; the stateful disk (head position,
//     I/O counters) is never shared, so per-prediction counter deltas
//     stay exact.
//   - Each task seeds a private rand.Rand from the root seed plus the
//     row's fixed offset (environment.task's seedOffset, or the
//     driver's own, such as fig13's page size), never from another
//     task's: rand.Rand is not goroutine-safe and must never be
//     reachable from two tasks.

// envCache shares fully-constructed environments between drivers of
// one process. Within `-run all`, table3, the correlation diagrams,
// table4, fig13, fig14 and the range-query sweep all stand up the
// TEXTURE60 environment with the same options; generating the dataset,
// the workload, and the measured ground-truth index once covers all of
// them. Safe because environments are immutable after construction:
// predictions stage their own disks and never write through the
// cached state. Keyed by (spec name, options) — both comparable —
// and deterministic: a cache hit returns exactly the environment a
// fresh construction would.
var envCache struct {
	sync.Mutex
	m map[envKey]*envEntry
}

type envKey struct {
	spec string
	opt  Options
}

// envEntry delays construction out of the cache lock's critical
// section (per-key sync.Once), so concurrent tasks standing up
// different environments — the all-datasets sweep — build them in
// parallel while two requests for the same key still construct once.
type envEntry struct {
	once sync.Once
	env  *environment
}

// sharedEnvironment returns the process-wide cached environment for
// (spec, opt), constructing it on first use.
func sharedEnvironment(spec dataset.Spec, opt Options) *environment {
	key := envKey{spec: spec.Name, opt: opt.withDefaults()}
	envCache.Lock()
	if envCache.m == nil {
		envCache.m = make(map[envKey]*envEntry)
	}
	e, ok := envCache.m[key]
	if !ok {
		e = &envEntry{}
		envCache.m[key] = e
	}
	envCache.Unlock()
	e.once.Do(func() { e.env = newEnvironment(spec, opt) })
	return e.env
}
