package query

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hdidx/internal/vec"
)

// forEachLaneWidth runs f with simdLanes forced to every width this
// CPU can run — 0 (the portable kernel), 4 (AVX2), 8 (AVX-512) —
// restoring the detected width afterwards. The detection picks one
// kernel per machine, so the other kernels would otherwise go
// untested.
func forEachLaneWidth(f func(lanes int)) {
	detected := simdLanes
	defer func() { simdLanes = detected }()
	for _, lanes := range []int{0, 4, 8} {
		if lanes > detected {
			continue // CPU can't run this kernel
		}
		simdLanes = lanes
		f(lanes)
	}
}

func TestComputeSpheresAllLaneWidths(t *testing.T) {
	forEachLaneWidth(func(lanes int) {
		for _, dim := range []int{1, 7, 16, 60} {
			data := uniformPoints(700, dim, int64(dim))
			queries := uniformPoints(25, dim, int64(dim)+300)
			for _, k := range []int{1, 21, 700} {
				got := ComputeSpheres(data, queries, k)
				want := refComputeSpheres(data, queries, k)
				for i := range want {
					if got[i].Radius != want[i].Radius {
						t.Fatalf("lanes=%d dim=%d k=%d query %d: radius %v != oracle %v",
							lanes, dim, k, i, got[i].Radius, want[i].Radius)
					}
				}
			}
		}
	})
}

// The one scan body at every lane width, fed in chunks around the
// group and batch boundaries (tail-only chunks, exact groups, one
// tail row, a batch plus or minus one row) and in random splits: the
// radii must equal the oracle's bit for bit.
func TestSphereScannerAllLaneWidths(t *testing.T) {
	forEachLaneWidth(func(lanes int) {
		l, _ := scanKernel()
		rng := rand.New(rand.NewSource(int64(l)))
		for _, dim := range []int{1, 7, 16, 60} {
			data := uniformPoints(1300, dim, int64(dim))
			queries := uniformPoints(12, dim, int64(dim)+500)
			for _, k := range []int{1, 21} {
				want := refComputeSpheres(data, queries, k)
				// Chunk size 0 draws a random size per chunk.
				for _, c := range []int{1, l - 1, l, l + 1, scanBatch - 1, scanBatch + 1, len(data), 0} {
					s := NewSphereScanner(queries, k)
					for off := 0; off < len(data); {
						n := c
						if n == 0 {
							n = 1 + rng.Intn(2*scanBatch)
						}
						n = min(n, len(data)-off)
						s.Process(data[off : off+n])
						off += n
					}
					got := s.Spheres()
					for i := range want {
						if got[i].Radius != want[i].Radius {
							t.Fatalf("lanes=%d dim=%d k=%d chunk=%d query %d: radius %v != oracle %v",
								lanes, dim, k, c, i, got[i].Radius, want[i].Radius)
						}
					}
				}
			}
		}
	})
}

// A row one coordinate wider or narrower than the first, anywhere in
// a chunk — inside a lane group or among the tail rows the group
// kernel does not pack — panics with a message naming the row, at
// every lane width, through ComputeSpheres and through Process.
func TestRaggedRowPanics(t *testing.T) {
	const n, dim, chunk = 101, 16, 30 // n leaves tail rows at every width
	forEachLaneWidth(func(lanes int) {
		l, _ := scanKernel()
		for _, pos := range []int{1, l - 1, l, chunk, n - n%l - 1, n - n%l, n - 1} {
			for _, width := range []int{dim - 1, dim + 1} {
				data := uniformPoints(n, dim, int64(pos))
				data[pos] = make([]float64, width)
				queries := uniformPoints(5, dim, 77)
				want := fmt.Sprintf("row %d has dimension %d, want %d", pos, width, dim)
				wantPanic(t, want, func() { ComputeSpheres(data, queries, 3) })
				wantPanic(t, want, func() {
					s := NewSphereScanner(queries, 3)
					for off := 0; off < n; off += chunk {
						s.Process(data[off:min(off+chunk, n)])
					}
				})
			}
		}
	})
}

// The group kernels on the same packed rows: scanGroups8 writes the
// portable kernel's part array bit for bit, at a finite bound (groups
// abandoned mid-row) and at +Inf (every distance completed). Four-lane
// groups abandon differently, so scanGroups4 must agree only on the
// rows whose value is within the bound — and those values are vec.SqDist's.
func TestGroupKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const rows = 8 * 40
	for _, dim := range []int{1, 7, 16, 60} {
		data := make([][]float64, rows)
		for i := range data {
			data[i] = make([]float64, dim)
			for j := range data[i] {
				data[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		q := data[rng.Intn(rows)]
		full := make([]float64, rows)
		for i, row := range data {
			full[i] = vec.SqDist(row, q)
		}
		sorted := append([]float64(nil), full...)
		sort.Float64s(sorted)
		for _, bound := range []float64{math.Inf(1), sorted[5]} {
			part8 := runGroupKernel(scanGroupsGo, data, q, 8, bound)
			abandoned := 0
			for i, v := range part8 {
				if v <= bound && v != full[i] {
					t.Fatalf("dim=%d bound=%v row %d: portable kernel %v != vec.SqDist %v", dim, bound, i, v, full[i])
				}
				if (v <= bound) != (full[i] <= bound) {
					t.Fatalf("dim=%d bound=%v row %d: portable kernel %v, vec.SqDist %v", dim, bound, i, v, full[i])
				}
				if v < full[i] {
					abandoned++
				}
			}
			if dim == 60 && !math.IsInf(bound, 1) && abandoned == 0 {
				t.Errorf("dim=%d bound=%v: no group abandoned", dim, bound)
			}
			if simdLanes >= 8 {
				avx512 := runGroupKernel(scanGroups8, data, q, 8, bound)
				for i := range part8 {
					if math.Float64bits(avx512[i]) != math.Float64bits(part8[i]) {
						t.Fatalf("dim=%d bound=%v row %d: scanGroups8 %v != scanGroupsGo %v", dim, bound, i, avx512[i], part8[i])
					}
				}
			}
			if simdLanes >= 4 {
				avx2 := runGroupKernel(scanGroups4, data, q, 4, bound)
				for i := range part8 {
					if (avx2[i] <= bound) != (part8[i] <= bound) || (avx2[i] <= bound && avx2[i] != part8[i]) {
						t.Fatalf("dim=%d bound=%v row %d: scanGroups4 %v, scanGroupsGo %v", dim, bound, i, avx2[i], part8[i])
					}
				}
			}
		}
	}
}

// runGroupKernel packs data (whose length is a multiple of lanes) and
// returns kernel's part array for the zero-padded query q.
func runGroupKernel(kernel groupKernel, data [][]float64, q []float64, lanes int, bound float64) []float64 {
	pm := packMatrix(data, len(q), lanes)
	defer packedPool.Put(pm)
	qpad := make([]float64, pm.dimPad)
	copy(qpad, q)
	part := make([]float64, len(data))
	kernel(&pm.buf[0], pm.groupBytes(), 0, pm.groups, &qpad[0], pm.dimPad/dimChunk, bound, &part[0])
	return part
}

// BenchmarkKernelComputeSpheresPortable60 is Flat60 on the portable
// group kernel, the path of CPUs without AVX2 and of other
// architectures.
func BenchmarkKernelComputeSpheresPortable60(b *testing.B) {
	detected := simdLanes
	simdLanes = 0
	defer func() { simdLanes = detected }()
	data, queries := benchSpheresInput(60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeSpheres(data, queries, 21)
	}
}
