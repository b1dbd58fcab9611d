package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"hdidx/internal/core"
	"hdidx/internal/dataset"
	"hdidx/internal/disk"
	"hdidx/internal/obs"
	"hdidx/internal/pager"
	"hdidx/internal/par"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
	"hdidx/internal/stats"
)

// The pager experiment closes the loop the paper leaves open: its
// predictors estimate leaf-page accesses of a modeled index, and the
// other experiments check them against a simulated in-memory index.
// Here the index is saved to a real page-aligned snapshot file and the
// same k-NN workload runs through the pager's ReadAt path, so the
// prediction is compared against pages actually read from a file —
// and against the in-memory measurement, which the paged search must
// reproduce bit-identically (radii and leaf/dir access counts).
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
	// the pager-backed search's (equal to MeasuredAccesses when
	// BitIdentical holds).
	PredictedAccesses float64
	MeasuredAccesses  float64
	PagedAccesses     float64
	// BitIdentical reports whether every paged query matched its
	// in-memory twin in radius and leaf/dir access counts.
	BitIdentical bool
	// PagesPerQuery and SeeksPerQuery are real file I/O counted by the
	// ReadAt pager across the workload (every page touch recharged per
	// read call); FileBytes and FilePages describe the snapshot file
	// itself.
	PagesPerQuery float64
	SeeksPerQuery float64
	FileBytes     int64
	FilePages     int64
	// MmapUsed reports whether the same workload also ran zero-copy
	// over a read-only file mapping (false where the platform lacks
	// mmap; the mmap columns are then zero). MmapPagesPerQuery counts
	// at fault granularity — each points page is charged once on first
	// touch since the counter reset, re-touches are cache hits — so it
	// reads lower than PagesPerQuery by design; MmapBitIdentical
	// reports the mapped search matched the in-memory twin.
	MmapUsed          bool
	MmapPagesPerQuery float64
	MmapBitIdentical  bool
	// MeasuredIOSeconds prices the real page reads under the same disk
	// parameters the predictors use — the measured counterpart of
	// Estimate.PredictionIOSeconds, via obs.NewWithSource.
	MeasuredIOSeconds float64
}

// PagerResult is the predicted-vs-file-measured experiment.
type PagerResult struct {
	K    int
	Rows []PagerRow
}

// Pager saves real indexes over two datasets at two page sizes,
// replays the k-NN workload through the pager read path, and reports
// predicted leaf accesses against in-memory and file-measured counts.
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
	// read-only across the page sizes (the fig13 idiom).
	type workload struct {
		data        [][]float64
		indices     []int
		queryPoints [][]float64
		k           int
	}
	loads := make([]workload, len(specs))
	for si, spec := range specs {
		scaled := spec
		if opt.Scale != 1 {
			scaled = spec.Scaled(opt.Scale)
		}
		rng := rand.New(rand.NewSource(opt.Seed + int64(si)))
		data := scaled.Generate(rng).Points
		k := opt.K
		if k > len(data) {
			k = len(data)
		}
		indices := make([]int, opt.Queries)
		queryPoints := make([][]float64, opt.Queries)
		for i := range indices {
			indices[i] = rng.Intn(len(data))
			queryPoints[i] = data[indices[i]]
		}
		loads[si] = workload{data: data, indices: indices, queryPoints: queryPoints, k: k}
		specs[si] = scaled
	}

	res := PagerResult{K: opt.K, Rows: make([]PagerRow, len(cells))}
	err = runTasks(len(cells), func(ci int) error {
		c := cells[ci]
		spec, wl, pb := specs[c.spec], loads[c.spec], pageSizes[c.page]
		g := rtree.Geometry{Dim: spec.Dim, PageBytes: pb, Utilization: rtree.DefaultUtilization}

		// In-memory ground truth.
		cp := make([][]float64, len(wl.data))
		copy(cp, wl.data)
		tree := rtree.Build(cp, rtree.ParamsForGeometry(g))
		ft := tree.Flatten()
		flat := query.MeasureKNNFlat(ft, wl.queryPoints, wl.k)

		// Prediction, by the fig13 rule: the resampled model when the
		// tree is tall enough to split, the basic model otherwise.
		var predicted float64
		if rtree.NewTopology(len(wl.data), g).Height >= 3 {
			d := disk.New(disk.DefaultParams().WithPageBytes(pb))
			pf := disk.NewPointFile(d, spec.Dim, len(wl.data))
			pf.AppendAll(wl.data)
			d.ResetCounters()
			cfg := core.Config{
				Geometry:     g,
				M:            opt.M,
				K:            wl.k,
				QueryIndices: wl.indices,
				Rng:          rand.New(rand.NewSource(opt.Seed + int64(1000*ci))),
			}
			p, err := core.PredictResampled(pf, cfg)
			if err != nil {
				return fmt.Errorf("pager %s page=%d: %w", spec.Name, pb, err)
			}
			predicted = p.Mean
		} else {
			spheres := query.ComputeSpheres(wl.data, wl.queryPoints, wl.k)
			zeta := basicZeta(opt.M, len(wl.data), g)
			p, err := core.PredictBasic(wl.data, zeta, true, g, spheres,
				rand.New(rand.NewSource(opt.Seed+int64(1000*ci))), par.Pool{}, nil)
			if err != nil {
				return fmt.Errorf("pager %s page=%d basic: %w", spec.Name, pb, err)
			}
			predicted = p.Mean
		}

		// Save to a real file and replay the workload through the pager.
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
		// The snapshot's real page-read counters stand in for the
		// simulated disk behind an obs trace, so measured file I/O
		// lands in the same phase reports (and -trace output) as the
		// predictors' simulated I/O.
		snap.ResetCounters()
		trace := obs.NewWithSource("pager."+spec.Name, snap, disk.DefaultParams().WithPageBytes(pb))
		if obs.Default.Enabled() {
			obs.Default.Add(trace)
		}
		span := trace.Span(fmt.Sprintf("paged.knn.%dB", pb))
		paged := query.MeasureKNNPaged(snap.Tree(), snap, wl.queryPoints, wl.k)
		span.End()
		io := snap.Counters()
		var ioSeconds float64
		for _, ph := range trace.Phases() {
			ioSeconds += ph.IOSeconds
		}

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
		identical := matches(paged)

		// The same workload again, zero-copy over a read-only mapping:
		// identical results, page touches counted at fault granularity.
		var mmapUsed, mmapIdentical bool
		var mmapPages float64
		if pager.MmapSupported() {
			msnap, err := pager.OpenWith(path, pager.Options{Backend: pager.BackendMmap})
			if err != nil {
				return fmt.Errorf("pager %s page=%d mmap open: %w", spec.Name, pb, err)
			}
			mpaged := query.MeasureKNNPaged(msnap.Tree(), msnap, wl.queryPoints, wl.k)
			mio := msnap.Counters()
			mmapUsed = true
			mmapIdentical = matches(mpaged)
			mmapPages = float64(mio.Transfers) / float64(len(wl.queryPoints))
			if err := msnap.Close(); err != nil {
				return fmt.Errorf("pager %s page=%d mmap close: %w", spec.Name, pb, err)
			}
		}
		leaf := func(rs []query.Result) []float64 {
			out := make([]float64, len(rs))
			for i, r := range rs {
				out[i] = float64(r.LeafAccesses)
			}
			return out
		}
		q := float64(len(wl.queryPoints))
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
			MeasuredIOSeconds: ioSeconds,
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
	fmt.Fprintf(&b, "mmap pages/query counts page faults (first touches), not per-read recharges, so it reads lower by design\n")
	return b.String()
}
