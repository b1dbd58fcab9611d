package rtree

import (
	"math/rand"
	"testing"

	"hdidx/internal/dataset"
	"hdidx/internal/disk"
)

func fileWithPoints(t testing.TB, pts [][]float64) (*disk.Disk, *disk.PointFile) {
	t.Helper()
	d := disk.New(disk.DefaultParams())
	pf := disk.NewPointFile(d, len(pts[0]), len(pts))
	pf.AppendAll(pts)
	d.ResetCounters()
	return d, pf
}

func TestBuildOnDiskMatchesInMemoryStructure(t *testing.T) {
	pts := uniformPoints(5000, 8, 11)
	params := BuildParams{LeafCap: 32, DirCap: 15}
	mem := Build(dataset.SampleExact(pts, len(pts), rand.New(rand.NewSource(1))), params)

	_, pf := fileWithPoints(t, pts)
	od := BuildOnDisk(pf, params, 1000, nil)
	if err := od.Validate(); err != nil {
		t.Fatal(err)
	}
	if od.Height() != mem.Height() {
		t.Errorf("on-disk height %d != in-memory %d", od.Height(), mem.Height())
	}
	if od.NumLeaves() != mem.NumLeaves() {
		t.Errorf("on-disk leaves %d != in-memory %d", od.NumLeaves(), mem.NumLeaves())
	}
}

func TestBuildOnDiskChargesIO(t *testing.T) {
	pts := uniformPoints(5000, 8, 12)
	d, pf := fileWithPoints(t, pts)
	BuildOnDisk(pf, BuildParams{LeafCap: 32, DirCap: 15}, 1000, nil)
	c := d.Counters()
	if c.Transfers == 0 || c.Seeks == 0 {
		t.Fatalf("no I/O charged: %+v", c)
	}
	// At minimum the data must be read and written once each.
	b := disk.PointsPerPage(disk.DefaultParams(), 8)
	minTransfers := int64(2 * ((len(pts) + b - 1) / b))
	if c.Transfers < minTransfers {
		t.Errorf("transfers = %d, want >= %d", c.Transfers, minTransfers)
	}
}

func TestBuildOnDiskSmallFitsMemoryCheaply(t *testing.T) {
	// When everything fits in memory the build is one read pass plus
	// one write pass of the data (plus directory writes).
	pts := uniformPoints(2000, 8, 13)
	d, pf := fileWithPoints(t, pts)
	tr := BuildOnDisk(pf, BuildParams{LeafCap: 32, DirCap: 15}, 10000, nil)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	b := disk.PointsPerPage(disk.DefaultParams(), 8)
	dataPages := int64((len(pts) + b - 1) / b)
	dirPages := int64(tr.NumNodes() - tr.NumLeaves())
	c := d.Counters()
	want := 2*dataPages + dirPages
	if c.Transfers != want {
		t.Errorf("transfers = %d, want %d", c.Transfers, want)
	}
}

func TestBuildOnDiskCostGrowsWhenMemoryShrinks(t *testing.T) {
	pts := uniformPoints(20000, 8, 14)
	params := BuildParams{LeafCap: 32, DirCap: 15}

	dBig, pfBig := fileWithPoints(t, pts)
	BuildOnDisk(pfBig, params, 20000, nil)
	costBig := dBig.Counters().CostSeconds(disk.DefaultParams())

	dSmall, pfSmall := fileWithPoints(t, pts)
	BuildOnDisk(pfSmall, params, 1000, nil)
	costSmall := dSmall.Counters().CostSeconds(disk.DefaultParams())

	if costSmall <= costBig {
		t.Errorf("cost with M=1000 (%v) should exceed cost with M=20000 (%v)", costSmall, costBig)
	}
}

func TestBuildOnDiskReordersFileIntoLeafLayout(t *testing.T) {
	pts := uniformPoints(3000, 4, 15)
	_, pf := fileWithPoints(t, pts)
	tr := BuildOnDisk(pf, BuildParams{LeafCap: 32, DirCap: 15}, 500, nil)
	// After the build, reading the file in order must yield the leaf
	// points in leaf order.
	got := pf.ReadAll()
	i := 0
	for _, l := range tr.Leaves() {
		for _, p := range l.Points {
			for j := range p {
				// float32 storage tolerance
				if diff := got[i][j] - p[j]; diff > 1e-6 || diff < -1e-6 {
					t.Fatalf("file point %d differs from leaf layout", i)
				}
			}
			i++
		}
	}
	if i != len(pts) {
		t.Fatalf("leaf layout has %d points, want %d", i, len(pts))
	}
}

func TestBuildOnDiskPanicsOnEmpty(t *testing.T) {
	d := disk.New(disk.DefaultParams())
	pf := disk.NewPointFile(d, 4, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildOnDisk(pf, BuildParams{LeafCap: 32, DirCap: 15}, 100, nil)
}

func BenchmarkBuildOnDisk20k8d(b *testing.B) {
	pts := uniformPoints(20000, 8, 16)
	params := BuildParams{LeafCap: 32, DirCap: 15}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := disk.New(disk.DefaultParams())
		pf := disk.NewPointFile(d, 8, len(pts))
		pf.AppendAll(pts)
		b.StartTimer()
		BuildOnDisk(pf, params, 2000, nil)
	}
}
