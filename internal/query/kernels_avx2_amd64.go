package query

// Vector group kernels of the sphere scan (layout and contract in
// kernels.go). With the packed layout one vector register holds the
// same dimension of L rows (L = 4 with AVX2, 8 with AVX-512), and the
// assembly kernels (kernels_avx2_amd64.s) subtract the broadcast query
// coordinate, square, and accumulate — per lane the exact
// SUBSD/MULSD/ADDSD sequence of vec.SqDist in ascending dimension order,
// so every squared distance is bit-identical to it.

// simdLanes is the vector width in float64 rows: 8 with AVX-512, 4
// with AVX2, 0 when the CPU runs neither vector kernel.
var simdLanes = detectLanes()

// scanKernel returns the lane width and the group kernel of the scan:
// the vector kernel simdLanes selects, else the portable kernel.
func scanKernel() (int, groupKernel) {
	switch simdLanes {
	case 8:
		return 8, scanGroups8
	case 4:
		return 4, scanGroups4
	}
	return goLanes, scanGroupsGo
}

func detectLanes() int {
	ecx := cpuid1ecx()
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return 0
	}
	xcr0 := xgetbv0()
	// The OS must save/restore XMM and YMM state.
	if xcr0&6 != 6 {
		return 0
	}
	ebx := cpuid7ebx()
	const avx2, avx512f = 1 << 5, 1 << 16
	if ebx&avx2 == 0 {
		return 0
	}
	// AVX-512 additionally needs opmask and ZMM state enabled.
	if ebx&avx512f != 0 && xcr0&0xe6 == 0xe6 {
		return 8
	}
	return 4
}

// cpuid1ecx returns ECX of CPUID leaf 1 (feature bits: OSXSAVE, AVX).
func cpuid1ecx() uint32

// cpuid7ebx returns EBX of CPUID leaf 7, subleaf 0 (AVX2, AVX-512F).
func cpuid7ebx() uint32

// xgetbv0 returns XCR0 (which register states the OS saves).
func xgetbv0() uint64

// scanGroups4 and scanGroups8 are the AVX2 and AVX-512F group
// kernels; they follow the groupKernel contract.
//
//go:noescape
func scanGroups4(packed *float64, groupBytes uintptr, g0, n int, q *float64, nchunks int, bound float64, part *float64)

//go:noescape
func scanGroups8(packed *float64, groupBytes uintptr, g0, n int, q *float64, nchunks int, bound float64, part *float64)
