package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hdidx/internal/dataset"
	"hdidx/internal/disk"
	"hdidx/internal/pager"
	"hdidx/internal/par"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
	"hdidx/internal/stats"
	"hdidx/internal/vec"
)

// The pager experiment closes the loop the paper leaves open: its
// predictors estimate leaf-page accesses of a modeled index, and the
// other experiments check them against a simulated in-memory index.
// Here the index is saved to a real page-aligned snapshot file and
// reopened, both read into memory and mapped; the search over each tree
// must reproduce the in-memory measurement bit-identically (radii and
// leaf/dir access counts). The file pages the workload reads follow
// from the file layout: each accessed leaf's rows occupy a known page
// span (pager.Snapshot.LeafPages), so the prediction is compared
// against the pages a reader of that file transfers.
//
// Pages-per-query exceeds leaf-accesses-per-query by a fixed ratio:
// the tree's geometry models 4-byte coordinates (Geometry.
// MaxDataCapacity is PageBytes/(4*Dim)), but the snapshot stores
// float64 rows, so one modeled leaf spans about twice as many file
// pages. The ratio is reported per row; the leaf-access columns are
// the apples-to-apples comparison with the predictor.

// PagerRow is one (dataset, page size) cell of the pager experiment.
type PagerRow struct {
	Dataset   string
	N         int
	Dim       int
	PageBytes int
	// PredictedAccesses is the model's leaf accesses per query;
	// MeasuredAccesses is the in-memory flat search's; PagedAccesses is
	// the search's over the tree read from the file (equal to
	// MeasuredAccesses when BitIdentical holds).
	PredictedAccesses float64
	MeasuredAccesses  float64
	PagedAccesses     float64
	// BitIdentical reports whether every query over the read tree
	// matched its in-memory twin in radius and leaf/dir access counts.
	BitIdentical bool
	// PagesPerQuery is the file pages a ReadAt reader transfers per
	// query: the page span of every accessed leaf, each leaf read on
	// its own. SeeksPerQuery is the maximal runs of consecutive pages
	// among each query's pages — the seeks of a reader that sorts a
	// query's reads. FileBytes and FilePages describe the snapshot file
	// itself.
	PagesPerQuery float64
	SeeksPerQuery float64
	FileBytes     int64
	FilePages     int64
	// MmapUsed reports whether the file was also searched over a
	// read-only mapping (false where the platform lacks mmap; the mmap
	// columns are then zero). MmapPagesPerQuery is the union of the
	// accessed leaves' pages over the whole workload per query — each
	// page faults in once, on first touch — so it reads lower than
	// PagesPerQuery by design; MmapBitIdentical reports the mapped
	// search matched the in-memory twin.
	MmapUsed          bool
	MmapPagesPerQuery float64
	MmapBitIdentical  bool
	// MeasuredIOSeconds prices the ReadAt pages and seeks under the
	// same disk parameters the predictors use — the file counterpart of
	// Estimate.PredictionIOSeconds.
	MeasuredIOSeconds float64
}

// PagerResult is the predicted-vs-file-measured experiment.
type PagerResult struct {
	K    int
	Rows []PagerRow
}

// Pager saves real indexes over two datasets at two page sizes,
// searches the reopened files, and reports predicted leaf accesses
// against in-memory counts and the pages the workload reads from the
// file.
func Pager(opt Options) (PagerResult, error) {
	opt = opt.withDefaults()
	specs := []dataset.Spec{dataset.Texture48, dataset.Color64}
	pageSizes := []int{8192, 32768}

	dir, err := os.MkdirTemp("", "hdidx-pager-")
	if err != nil {
		return PagerResult{}, fmt.Errorf("pager: %w", err)
	}
	defer os.RemoveAll(dir)

	type cell struct{ spec, page int }
	cells := make([]cell, 0, len(specs)*len(pageSizes))
	for si := range specs {
		for pi := range pageSizes {
			cells = append(cells, cell{spec: si, page: pi})
		}
	}

	// Datasets and workloads are generated once per spec and shared
	// read-only across the page sizes.
	loads := make([]workload, len(specs))
	for si, spec := range specs {
		o := opt
		o.Seed += int64(si)
		loads[si] = newWorkload(spec, o)
	}

	res := PagerResult{K: opt.K, Rows: make([]PagerRow, len(cells))}
	err = par.FirstError(len(cells), func(ci int) error {
		c := cells[ci]
		wl, pb := loads[c.spec], pageSizes[c.page]
		spec := wl.spec
		g := rtree.Geometry{Dim: spec.Dim, PageBytes: pb, Utilization: rtree.DefaultUtilization}

		// In-memory ground truth.
		ft := rtree.Build(wl.data, rtree.ParamsForGeometry(g)).Flatten()
		flat := query.MeasureKNNFlat(ft, wl.queryPoints, wl.k)

		// Prediction, by fig13's and alldatasets' rule (predictMean).
		seed := opt.Seed + int64(1000*ci)
		predicted, _, err := wl.predictMean(g, opt.M, seed, seed)
		if err != nil {
			return fmt.Errorf("pager %s page=%d: %w", spec.Name, pb, err)
		}

		// Save to a real file, reopen it read and mapped, and search
		// the opened trees again.
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.hdsn", spec.Name, pb))
		fileBytes, err := pager.WriteFileAtomic(path, ft, pb)
		if err != nil {
			return fmt.Errorf("pager %s page=%d save: %w", spec.Name, pb, err)
		}
		snap, err := pager.OpenWith(path, pager.Options{Backend: pager.BackendReadAt})
		if err != nil {
			return fmt.Errorf("pager %s page=%d open: %w", spec.Name, pb, err)
		}
		defer snap.Close()
		matches := func(got []query.Result) bool {
			for i := range got {
				if got[i].Radius != flat[i].Radius ||
					got[i].LeafAccesses != flat[i].LeafAccesses ||
					got[i].DirAccesses != flat[i].DirAccesses {
					return false
				}
			}
			return true
		}
		paged := query.MeasureKNNFlat(snap.Tree(), wl.queryPoints, wl.k)
		identical := matches(paged)
		var mmapUsed, mmapIdentical bool
		if pager.MmapSupported() {
			msnap, err := pager.OpenWith(path, pager.Options{Backend: pager.BackendMmap})
			if err != nil {
				return fmt.Errorf("pager %s page=%d mmap open: %w", spec.Name, pb, err)
			}
			mmapUsed = true
			mmapIdentical = matches(query.MeasureKNNFlat(msnap.Tree(), wl.queryPoints, wl.k))
			if err := msnap.Close(); err != nil {
				return fmt.Errorf("pager %s page=%d mmap close: %w", spec.Name, pb, err)
			}
		}
		io, touched, err := filePageIO(snap, wl.queryPoints, wl.k, flat)
		if err != nil {
			return fmt.Errorf("pager %s page=%d: %w", spec.Name, pb, err)
		}
		q := float64(len(wl.queryPoints))
		var mmapPages float64
		if mmapUsed {
			mmapPages = float64(touched) / q
		}
		leaf := func(rs []query.Result) []float64 {
			out := make([]float64, len(rs))
			for i, r := range rs {
				out[i] = float64(r.LeafAccesses)
			}
			return out
		}
		res.Rows[ci] = PagerRow{
			Dataset:           spec.Name,
			N:                 len(wl.data),
			Dim:               spec.Dim,
			PageBytes:         pb,
			PredictedAccesses: predicted,
			MeasuredAccesses:  stats.Mean(leaf(flat)),
			PagedAccesses:     stats.Mean(leaf(paged)),
			BitIdentical:      identical,
			PagesPerQuery:     float64(io.Transfers) / q,
			SeeksPerQuery:     float64(io.Seeks) / q,
			FileBytes:         fileBytes,
			FilePages:         snap.Pages(),
			MeasuredIOSeconds: io.CostSeconds(disk.DefaultParams().WithPageBytes(pb)),
			MmapUsed:          mmapUsed,
			MmapPagesPerQuery: mmapPages,
			MmapBitIdentical:  mmapIdentical,
		}
		return nil
	})
	if err != nil {
		return PagerResult{}, err
	}
	return res, nil
}

// filePageIO derives the file page I/O of a k-NN workload from the
// snapshot's layout. A leaf is accessed iff its squared MINDIST is at
// most the query's final squared k-th distance (the accessed-set rule
// of query/flat.go; a parent's rectangle contains its children's, so
// testing the leaf alone is enough). The bound is taken exactly, from
// the k-th neighbor, never as Radius² — Sqrt does not round-trip.
//
// Leaves are the tail of the node order and their rows are packed in
// that order, so the accessed leaves' page spans come out ascending. A
// ReadAt reader transfers every span and seeks once per maximal run of
// consecutive pages within a query; an mmap reader faults each page
// once over the whole workload (touched). The derived leaf count of
// every query must equal the search's LeafAccesses.
func filePageIO(snap *pager.Snapshot, queries [][]float64, k int, flat []query.Result) (io disk.Counters, touched int64, err error) {
	ft := snap.Tree()
	faulted := make(map[int64]struct{})
	for i, q := range queries {
		nbrs := query.KNNSearchFlat(ft, q, k).Neighbors
		bound := vec.SqDist(nbrs[k-1], q)
		leaves, end := 0, int64(-2)
		for node := ft.NumNodes() - ft.NumLeaves; node < ft.NumNodes(); node++ {
			if ft.Rects.MinSqDist(node, q) > bound {
				continue
			}
			leaves++
			first, last := snap.LeafPages(node)
			io.Transfers += last - first + 1
			if first > end+1 {
				io.Seeks++
			}
			end = last
			for p := first; p <= last; p++ {
				faulted[p] = struct{}{}
			}
		}
		if leaves != flat[i].LeafAccesses {
			return io, 0, fmt.Errorf("query %d: %d leaves meet the k-NN sphere, the search accessed %d",
				i, leaves, flat[i].LeafAccesses)
		}
	}
	return io, int64(len(faulted)), nil
}

// String renders the predicted-vs-measured table.
func (r PagerResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pager (extension) — predicted leaf accesses vs pages read from a real snapshot file (k=%d)\n", r.K)
	fmt.Fprintf(&b, "%-10s %8s %7s %7s %10s %10s %10s %11s %11s %10s %9s %11s %9s\n",
		"dataset", "N", "dim", "page B", "pred.leaf", "meas.leaf", "paged.leaf", "pages/query", "seeks/query", "io s", "identical", "mmap pg/q", "mmap id")
	for _, row := range r.Rows {
		mmapPages, mmapID := "-", "-"
		if row.MmapUsed {
			mmapPages = fmt.Sprintf("%.1f", row.MmapPagesPerQuery)
			mmapID = fmt.Sprintf("%v", row.MmapBitIdentical)
		}
		fmt.Fprintf(&b, "%-10s %8d %7d %7d %10.1f %10.1f %10.1f %11.1f %11.1f %10.3f %9v %11s %9s\n",
			row.Dataset, row.N, row.Dim, row.PageBytes,
			row.PredictedAccesses, row.MeasuredAccesses, row.PagedAccesses,
			row.PagesPerQuery, row.SeeksPerQuery, row.MeasuredIOSeconds, row.BitIdentical,
			mmapPages, mmapID)
	}
	fmt.Fprintf(&b, "pages/query > leaf/query because the geometry models 4-byte coordinates while the file stores float64 rows;\n")
	fmt.Fprintf(&b, "mmap pg/q counts each page once per workload (its first touch), so it reads lower by design; seeks/query counts runs of consecutive pages\n")
	return b.String()
}
