//go:build race

package rtree

// raceEnabled reports whether the race detector is active. The allocs
// guard test skips under -race: the detector instruments allocations
// and invalidates its per-insert budget.
const raceEnabled = true
