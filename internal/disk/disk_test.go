package disk

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.PageBytes != 8192 {
		t.Errorf("PageBytes = %d, want 8192", p.PageBytes)
	}
	if p.SeekSeconds != 0.010 || p.XferSeconds != 0.0004 {
		t.Errorf("times = %v/%v, want 0.010/0.0004", p.SeekSeconds, p.XferSeconds)
	}
}

func TestWithPageBytesRescalesTransfer(t *testing.T) {
	p := DefaultParams().WithPageBytes(65536)
	if p.PageBytes != 65536 {
		t.Errorf("PageBytes = %d", p.PageBytes)
	}
	// 8x larger pages at the same bandwidth -> 8x transfer time.
	if math.Abs(p.XferSeconds-0.0032) > 1e-12 {
		t.Errorf("XferSeconds = %v, want 0.0032", p.XferSeconds)
	}
	if p.SeekSeconds != 0.010 {
		t.Errorf("seek changed: %v", p.SeekSeconds)
	}
}

func TestCountersCost(t *testing.T) {
	c := Counters{Seeks: 100, Transfers: 1000}
	// 100*0.010 + 1000*0.0004 = 1.0 + 0.4
	if got := c.CostSeconds(DefaultParams()); math.Abs(got-1.4) > 1e-12 {
		t.Errorf("CostSeconds = %v, want 1.4", got)
	}
	sum := c.Add(Counters{Seeks: 1, Transfers: 2})
	if sum.Seeks != 101 || sum.Transfers != 1002 {
		t.Errorf("Add = %+v", sum)
	}
	diff := sum.Sub(c)
	if diff.Seeks != 1 || diff.Transfers != 2 {
		t.Errorf("Sub = %+v", diff)
	}
}

func TestSequentialScanCostsOneSeek(t *testing.T) {
	d := New(DefaultParams())
	f := d.Alloc(8192 * 10)
	buf := make([]byte, 8192)
	for i := int64(0); i < 10; i++ {
		f.WriteAt(buf, i*8192)
	}
	c := d.Counters()
	if c.Seeks != 1 {
		t.Errorf("sequential write seeks = %d, want 1", c.Seeks)
	}
	if c.Transfers != 10 {
		t.Errorf("transfers = %d, want 10", c.Transfers)
	}
}

func TestRandomAccessesSeekEachTime(t *testing.T) {
	d := New(DefaultParams())
	f := d.Alloc(8192 * 10)
	buf := make([]byte, 1)
	pagesHit := []int64{0, 5, 2, 9}
	for _, p := range pagesHit {
		f.ReadAt(buf, p*8192)
	}
	if got := d.Counters().Seeks; got != int64(len(pagesHit)) {
		t.Errorf("seeks = %d, want %d", got, len(pagesHit))
	}
}

func TestAdjacentPageNoSeek(t *testing.T) {
	d := New(DefaultParams())
	f := d.Alloc(8192 * 3)
	buf := make([]byte, 1)
	f.ReadAt(buf, 0)      // page 0: seek
	f.ReadAt(buf, 8192)   // page 1: adjacent, no seek
	f.ReadAt(buf, 8192*2) // page 2: adjacent, no seek
	f.ReadAt(buf, 8192)   // page 1 again: backwards, seek
	c := d.Counters()
	if c.Seeks != 2 || c.Transfers != 4 {
		t.Errorf("counters = %+v, want 2 seeks 4 transfers", c)
	}
}

func TestMultiPageAccessCountsAllTransfers(t *testing.T) {
	d := New(DefaultParams())
	f := d.Alloc(8192 * 4)
	buf := make([]byte, 8192*3)
	f.ReadAt(buf, 4096) // spans pages 0..3 partially: pages 0,1,2,3? bytes [4096, 28672) -> pages 0..3
	c := d.Counters()
	if c.Seeks != 1 || c.Transfers != 4 {
		t.Errorf("counters = %+v, want 1 seek 4 transfers", c)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := New(DefaultParams())
	f := d.Alloc(100)
	in := []byte("hello, paged world")
	f.WriteAt(in, 10)
	out := make([]byte, len(in))
	f.ReadAt(out, 10)
	if string(out) != string(in) {
		t.Errorf("round trip = %q, want %q", out, in)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	d := New(DefaultParams())
	f := d.Alloc(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.ReadAt(make([]byte, 8193), 0)
}

func TestResetCountersForgetsPosition(t *testing.T) {
	d := New(DefaultParams())
	f := d.Alloc(8192 * 2)
	buf := make([]byte, 1)
	f.ReadAt(buf, 0)
	d.ResetCounters()
	f.ReadAt(buf, 8192) // would be adjacent, but position was forgotten
	if got := d.Counters().Seeks; got != 1 {
		t.Errorf("seeks after reset = %d, want 1", got)
	}
}

func TestTwoFilesAreDisjoint(t *testing.T) {
	d := New(DefaultParams())
	a := d.Alloc(8192)
	b := d.Alloc(8192)
	a.WriteAt([]byte{1, 2, 3}, 0)
	b.WriteAt([]byte{9, 9, 9}, 0)
	out := make([]byte, 3)
	a.ReadAt(out, 0)
	if out[0] != 1 || out[2] != 3 {
		t.Errorf("file a clobbered: %v", out)
	}
	if a.StartPage() == b.StartPage() {
		t.Error("files share a start page")
	}
}

func TestTouchPages(t *testing.T) {
	d := New(DefaultParams())
	f := d.Alloc(8192 * 5)
	f.TouchPages(0, 3)
	f.TouchPages(3, 2)
	c := d.Counters()
	if c.Seeks != 1 || c.Transfers != 5 {
		t.Errorf("counters = %+v, want 1 seek 5 transfers", c)
	}
	f.TouchPages(0, 0) // no-op
	if d.Counters() != c {
		t.Error("zero-count touch changed counters")
	}
}

func TestPointsPerPage(t *testing.T) {
	p := DefaultParams()
	tests := []struct{ dim, want int }{
		{60, 34},  // 8192 / 240 = 34.1 -> matches TEXTURE60 geometry
		{64, 32},  // COLOR64
		{617, 3},  // 8192 / 2468 = 3.3
		{8, 256},  // uniform 8-d
		{4096, 1}, // bigger than a page: clamp to 1
	}
	for _, tt := range tests {
		if got := PointsPerPage(p, tt.dim); got != tt.want {
			t.Errorf("PointsPerPage(dim=%d) = %d, want %d", tt.dim, got, tt.want)
		}
	}
}

func TestPointFileRoundTrip(t *testing.T) {
	d := New(DefaultParams())
	pf := NewPointFile(d, 3, 10)
	pts := [][]float64{{1, 2, 3}, {-4.5, 0, 7.25}, {1e-3, 2e3, -1}}
	pf.AppendAll(pts)
	if pf.Len() != 3 {
		t.Fatalf("Len = %d, want 3", pf.Len())
	}
	got := pf.ReadAll()
	for i, p := range pts {
		for j := range p {
			// float32 round trip tolerance
			if math.Abs(got[i][j]-p[j]) > 1e-3*math.Max(1, math.Abs(p[j])) {
				t.Errorf("point %d dim %d = %v, want %v", i, j, got[i][j], p[j])
			}
		}
	}
}

func TestPointFileAppendSingle(t *testing.T) {
	d := New(DefaultParams())
	pf := NewPointFile(d, 2, 2)
	pf.Append([]float64{1, 2})
	pf.Append([]float64{3, 4})
	if got := pf.ReadPoint(1); got[0] != 3 || got[1] != 4 {
		t.Errorf("ReadPoint(1) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when full")
		}
	}()
	pf.Append([]float64{5, 6})
}

func TestPointFileDimensionMismatchPanics(t *testing.T) {
	d := New(DefaultParams())
	pf := NewPointFile(d, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pf.Append([]float64{1})
}

func TestPointFileScanCostMatchesFormula(t *testing.T) {
	// Scanning N points of dimension d costs 1 seek + ceil(N/B) transfers,
	// the paper's cost_ScanDataset.
	params := DefaultParams()
	d := New(params)
	n, dim := 10000, 60
	pf := NewPointFile(d, dim, n)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
	}
	pf.AppendAll(pts)
	d.ResetCounters()
	pf.ReadAll()
	b := PointsPerPage(params, dim)
	wantTransfers := int64((n + b - 1) / b)
	c := d.Counters()
	if c.Seeks != 1 {
		t.Errorf("scan seeks = %d, want 1", c.Seeks)
	}
	if c.Transfers != wantTransfers {
		t.Errorf("scan transfers = %d, want %d", c.Transfers, wantTransfers)
	}
}

// Property: arbitrary interleavings of in-bounds reads and writes
// never corrupt data (what you wrote last at an index is what you read)
// and transfers grow by at least one per access.
func TestPointFileConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := New(DefaultParams())
		n := 1 + r.Intn(50)
		dim := 1 + r.Intn(8)
		pf := NewPointFile(d, dim, n)
		shadow := make([][]float64, 0, n)
		for i := 0; i < n; i++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = float64(r.Intn(1000)) / 4 // exactly representable in float32
			}
			pf.Append(p)
			shadow = append(shadow, p)
		}
		for k := 0; k < 20; k++ {
			i := r.Intn(n)
			if r.Intn(2) == 0 {
				p := make([]float64, dim)
				for j := range p {
					p[j] = float64(r.Intn(1000)) / 4
				}
				pf.WriteAt(i, p)
				shadow[i] = p
			} else {
				got := pf.ReadPoint(i)
				for j := range got {
					if got[j] != shadow[i][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPointFileScan(b *testing.B) {
	d := New(DefaultParams())
	n, dim := 10000, 60
	pf := NewPointFile(d, dim, n)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
	}
	pf.AppendAll(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf.ReadAll()
	}
}

func TestZeroLengthAccessIsNoOp(t *testing.T) {
	d := New(DefaultParams())
	f := d.Alloc(8192 * 3)
	buf := make([]byte, 1)
	f.ReadAt(buf, 0) // head on page 0
	before := d.Counters()
	f.ReadAt(nil, 8192*2)          // far page, but zero bytes
	f.WriteAt([]byte{}, 8192*2+17) // likewise
	if got := d.Counters(); got != before {
		t.Errorf("zero-length access changed counters: %+v -> %+v", before, got)
	}
	// The head did not move either: page 1 is still adjacent.
	f.ReadAt(buf, 8192)
	if got := d.Counters().Seeks - before.Seeks; got != 0 {
		t.Errorf("zero-length access moved the head (%d extra seeks)", got)
	}
}

func TestZeroLengthAccessStillBoundsChecked(t *testing.T) {
	d := New(DefaultParams())
	f := d.Alloc(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-length read past EOF")
		}
	}()
	f.ReadAt(nil, 101)
}

func TestReadPastLogicalSizePanics(t *testing.T) {
	// The extent rounds 100 bytes up to a full page; reads must still be
	// rejected beyond the logical size, not the page capacity.
	d := New(DefaultParams())
	f := d.Alloc(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading slack bytes past EOF")
		}
	}()
	f.ReadAt(make([]byte, 50), 60)
}

// Property: splitting one sequential sweep into arbitrary contiguous
// chunks charges exactly one seek, regardless of where the chunk
// boundaries fall relative to pages — reading on from the page under
// the head is a continuation, not a new positioning.
func TestChunkedSequentialScanOneSeek(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := New(DefaultParams())
		size := int64(8192*6 + r.Intn(8192*4))
		fl := d.Alloc(size)
		for off := int64(0); off < size; {
			n := int64(1 + r.Intn(3*8192))
			if off+n > size {
				n = size - off
			}
			fl.ReadAt(make([]byte, n), off)
			off += n
		}
		return d.Counters().Seeks == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	// Page-granular chunking additionally transfers each page once.
	d := New(DefaultParams())
	fl := d.Alloc(8192 * 12)
	for _, chunk := range [][2]int64{{0, 5}, {5, 1}, {6, 4}, {10, 2}} {
		fl.TouchPages(chunk[0], chunk[1])
	}
	if c := d.Counters(); c.Seeks != 1 || c.Transfers != 12 {
		t.Errorf("page-chunked scan = %+v, want 1 seek / 12 transfers", c)
	}
}

// Regression for a data race: Alloc mutates the allocation metadata
// while observability code snapshots counters from other goroutines.
// Run under -race.
func TestAllocConcurrentWithSnapshotsNoRace(t *testing.T) {
	d := New(DefaultParams())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f := d.Alloc(8192 * 2)
				f.TouchPages(0, 2)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var before Counters
			for i := 0; i < 300; i++ {
				_ = d.AllocatedPages()
				before = d.Snapshot()
				_ = d.DiffSince(before)
				_ = d.CostSeconds()
			}
		}()
	}
	wg.Wait()
	if d.AllocatedPages() != 4*100*2 {
		t.Errorf("allocated %d pages, want %d", d.AllocatedPages(), 4*100*2)
	}
}

// TestNewBufferedValidation pins the NewBuffered shim the benchmark
// module stages its predictor replay with: it validates like New and
// returns a disk that charges like New.
func TestNewBufferedValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for a zero page size")
			}
		}()
		NewBuffered(Params{}, BufferConfig{})
	}()
	plain, shim := New(DefaultParams()), NewBuffered(DefaultParams(), BufferConfig{})
	for _, d := range []*Disk{plain, shim} {
		f := d.Alloc(8192 * 4)
		f.WriteAt(make([]byte, 8192*2), 0)
		f.TouchPages(3, 1)
		f.ReadAt(make([]byte, 10), 8192)
	}
	if plain.Counters() != shim.Counters() {
		t.Errorf("NewBuffered charged %+v, New %+v", shim.Counters(), plain.Counters())
	}
}

// TestDropBuffersColdStart pins the DropBuffers shim of the same
// staging replay: it charges nothing, and after ResetCounters the next
// access starts cold with a seek.
func TestDropBuffersColdStart(t *testing.T) {
	d := New(DefaultParams())
	f := d.Alloc(8192 * 2)
	f.WriteAt(make([]byte, 8192), 0)
	before := d.Counters()
	d.DropBuffers()
	if got := d.Counters(); got != before {
		t.Errorf("DropBuffers charged %+v", got.Sub(before))
	}
	d.ResetCounters()
	f.TouchPages(1, 1) // adjacent to the head before the reset
	if c := d.Counters(); c.Seeks != 1 || c.Transfers != 1 {
		t.Errorf("first touch after staging = %+v, want 1 seek / 1 transfer", c)
	}
}

// Alloc must cost the new extent only: the resampled predictor's k
// small area files, allocated behind one large dataset, must not copy
// the dataset's bytes k times.
func TestAllocDoesNotCopyEarlierExtents(t *testing.T) {
	d := New(DefaultParams())
	d.Alloc(8 << 20)
	const files, size = 100, 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < files; i++ {
		d.Alloc(size)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*files*size); got >= limit {
		t.Errorf("%d allocations of %d bytes allocated %d bytes, want < %d", files, size, got, limit)
	}
}

func TestCountersStringAndHitRate(t *testing.T) {
	c := Counters{Seeks: 2, Transfers: 5}
	if s := c.String(); s != "2 seeks, 5 transfers" {
		t.Errorf("uncached String() = %q", s)
	}
	c.Hits, c.Misses = 3, 1
	if got := c.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
	want := "2 seeks, 5 transfers, 3 hits, 1 misses (75.0% hit rate)"
	if s := c.String(); s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
	if (Counters{}).HitRate() != 0 {
		t.Error("zero counters should have zero hit rate")
	}
}
