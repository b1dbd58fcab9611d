package disk

import (
	"math"
	"strings"
	"testing"
)

func TestAccessorsAndString(t *testing.T) {
	d := New(DefaultParams())
	if d.Params().PageBytes != 8192 {
		t.Errorf("Params = %+v", d.Params())
	}
	// Alloc rounds up to whole pages, and an empty file still gets one.
	f := d.Alloc(8192*2 + 1)
	if f.size != 8192*2+1 || f.numPages != 3 {
		t.Errorf("file size/pages = %d/%d", f.size, f.numPages)
	}
	if empty := d.Alloc(0); empty.numPages != 1 || empty.startPage != 3 {
		t.Errorf("empty file pages/start = %d/%d, want 1/3", empty.numPages, empty.startPage)
	}
	if f.Disk() != d {
		t.Error("Disk() identity")
	}
	if d.pages != 4 {
		t.Errorf("allocated pages = %d, want 4", d.pages)
	}
	f.TouchPages(0, 2)
	if got := d.Counters().CostSeconds(d.Params()); math.Abs(got-(0.010+2*0.0004)) > 1e-12 {
		t.Errorf("CostSeconds = %v", got)
	}
	s := d.Counters().String()
	if !strings.Contains(s, "seeks") || !strings.Contains(s, "transfers") {
		t.Errorf("String = %q", s)
	}
}

func TestDiskConstructionPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(Params{PageBytes: 0}) },
		func() { New(DefaultParams()).Alloc(-1) },
		func() { DefaultParams().WithPageBytes(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPointFileAccessors(t *testing.T) {
	d := New(DefaultParams())
	pf := NewPointFile(d, 4, 100)
	if pf.Dim() != 4 || pf.Cap() != 100 {
		t.Errorf("dim/cap = %d/%d", pf.Dim(), pf.Cap())
	}
	if pf.File() == nil {
		t.Error("File() nil")
	}
	pf.AppendAll([][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}})
	d.ResetCounters()
	pf.ReadRange(0, 2)
	if c := d.Counters(); c.Seeks != 1 || c.Transfers != 1 {
		t.Errorf("reading both points = %+v, want 1 seek / 1 transfer (both in page 0)", c)
	}
}

func TestPointFileWriteRange(t *testing.T) {
	d := New(DefaultParams())
	pf := NewPointFile(d, 2, 10)
	pf.AppendAll([][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	pf.WriteRange(1, [][]float64{{9, 9}, {8, 8}})
	got := pf.ReadAll()
	want := [][]float64{{1, 1}, {9, 9}, {8, 8}, {4, 4}}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("point %d = %v, want %v", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-prefix write")
		}
	}()
	pf.WriteRange(3, [][]float64{{0, 0}, {0, 0}})
}

func TestPointFileOversizedPoints(t *testing.T) {
	// A 4096-dimensional point (16 KB) spans multiple physical 8 KB
	// pages; layout, charging, and round trips must still work.
	d := New(DefaultParams())
	const dim = 4096
	pf := NewPointFile(d, dim, 3)
	if pf.ppp != 1 {
		t.Fatalf("points per page = %d", pf.ppp)
	}
	p := make([]float64, dim)
	for i := range p {
		p[i] = float64(i % 7)
	}
	pf.AppendAll([][]float64{p, p, p})
	d.ResetCounters()
	got := pf.ReadAll()
	for i := range got {
		for j := 0; j < dim; j += 97 {
			if got[i][j] != p[j] {
				t.Fatalf("point %d dim %d = %v", i, j, got[i][j])
			}
		}
	}
	// Each point spans 2 physical pages: 3 points = 6 transfers.
	if c := d.Counters(); c.Transfers != 6 {
		t.Errorf("transfers = %d, want 6", c.Transfers)
	}
}

func TestPointFileConstructionPanics(t *testing.T) {
	d := New(DefaultParams())
	for _, f := range []func(){
		func() { NewPointFile(d, 0, 10) },
		func() { NewPointFile(d, 2, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPointFileReadOutsidePrefix(t *testing.T) {
	d := New(DefaultParams())
	pf := NewPointFile(d, 2, 10)
	pf.AppendAll([][]float64{{1, 2}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pf.ReadRange(0, 2)
}
