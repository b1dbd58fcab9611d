package experiments

import (
	"math"
	"testing"
)

func TestPagerExperiment(t *testing.T) {
	opt := Options{Scale: 0.01, Queries: 40, K: 5, Seed: 1}
	r, err := Pager(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows, want 2 datasets x 2 page sizes", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.BitIdentical {
			t.Errorf("%s page=%d: paged search diverged from in-memory", row.Dataset, row.PageBytes)
		}
		if row.PagedAccesses != row.MeasuredAccesses {
			t.Errorf("%s page=%d: paged leaf accesses %.2f != in-memory %.2f",
				row.Dataset, row.PageBytes, row.PagedAccesses, row.MeasuredAccesses)
		}
		if row.PredictedAccesses <= 0 || row.MeasuredAccesses <= 0 {
			t.Errorf("%s page=%d: non-positive accesses %+v", row.Dataset, row.PageBytes, row)
		}
		// The file stores float64 rows while the geometry models 4-byte
		// coordinates, so real pages per query must exceed leaf
		// accesses per query.
		if row.PagesPerQuery <= row.MeasuredAccesses {
			t.Errorf("%s page=%d: pages/query %.2f not above leaf accesses %.2f",
				row.Dataset, row.PageBytes, row.PagesPerQuery, row.MeasuredAccesses)
		}
		if row.SeeksPerQuery <= 0 || row.FileBytes <= 0 || row.FilePages <= 0 {
			t.Errorf("%s page=%d: missing I/O accounting %+v", row.Dataset, row.PageBytes, row)
		}
		if row.MeasuredIOSeconds <= 0 {
			t.Errorf("%s page=%d: measured I/O was not priced", row.Dataset, row.PageBytes)
		}
		if row.FileBytes%int64(row.PageBytes) != 0 {
			t.Errorf("%s page=%d: file size %d not page-aligned", row.Dataset, row.PageBytes, row.FileBytes)
		}
	}
	if r.String() == "" {
		t.Fatal("empty rendering")
	}
}

// TestPagerGolden pins the bits of the page and leaf columns at a small
// scale: the leaf accesses of the predictor, of the in-memory search and
// of the search over the opened file, and the pages per query a ReadAt
// reader transfers and an mmap reader first-touches. Page counts are
// arithmetic on the file layout, so any change to them is a change to
// the format or to the accessed set.
func TestPagerGolden(t *testing.T) {
	r, err := Pager(Options{Scale: 0.01, Queries: 40, K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		dataset                        string
		page                           int
		pred, meas, paged, pages, mmap uint64
	}{
		{"TEXTURE48@0.01", 8192, 0x400e99999999999a, 0x400d99999999999a, 0x400d99999999999a, 0x402419999999999a, 0x3fd4cccccccccccd},
		{"TEXTURE48@0.01", 32768, 0x3ff599999999999a, 0x3ff5333333333333, 0x3ff5333333333333, 0x400999999999999a, 0x3fb999999999999a},
		{"COLOR64@0.01", 8192, 0x4021b33333333333, 0x4024c00000000000, 0x4024c00000000000, 0x403c466666666666, 0x3ffc666666666666},
		{"COLOR64@0.01", 32768, 0x4011e66666666666, 0x4012cccccccccccd, 0x4012cccccccccccd, 0x402ab33333333333, 0x3fdccccccccccccd},
	}
	if len(r.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(r.Rows), len(want))
	}
	for i, w := range want {
		row := r.Rows[i]
		if row.Dataset != w.dataset || row.PageBytes != w.page {
			t.Fatalf("row %d is %s page=%d, want %s page=%d", i, row.Dataset, row.PageBytes, w.dataset, w.page)
		}
		got := []uint64{math.Float64bits(row.PredictedAccesses), math.Float64bits(row.MeasuredAccesses),
			math.Float64bits(row.PagedAccesses), math.Float64bits(row.PagesPerQuery)}
		exp := []uint64{w.pred, w.meas, w.paged, w.pages}
		if row.MmapUsed {
			got = append(got, math.Float64bits(row.MmapPagesPerQuery))
			exp = append(exp, w.mmap)
		}
		for j := range exp {
			if got[j] != exp[j] {
				t.Errorf("%s page=%d column %d: bits %#x (%v), want %#x (%v)", w.dataset, w.page, j,
					got[j], math.Float64frombits(got[j]), exp[j], math.Float64frombits(exp[j]))
			}
		}
	}
}
