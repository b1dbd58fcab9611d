//go:build !amd64

package query

// scanKernel returns the portable group kernel: this architecture has
// no vector kernels.
func scanKernel() (int, groupKernel) { return goLanes, scanGroupsGo }
