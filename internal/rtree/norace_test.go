//go:build !race

package rtree

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
