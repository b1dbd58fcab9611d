package disk

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PointFile stores fixed-dimensionality points as float32 values in a
// File. Points are page-aligned and never span a page boundary: each
// page holds exactly B = PointsPerPage points, matching the paper's
// geometry where an 8 KB page holds floor(8192 / (4*d)) points of
// dimensionality d and a scan of N points costs ceil(N/B) transfers.
//
// Every read and write is one sequential sweep over a point range,
// charged page-granular I/O on the owning Disk.
type PointFile struct {
	file *File
	dim  int
	ppp  int // points per page
	n    int // points written (dense prefix)
	cap  int
}

// EntryBytes returns the on-disk size of one point of the given
// dimensionality.
func EntryBytes(dim int) int { return 4 * dim }

// PointsPerPage returns how many points of the given dimensionality
// fit in one page under params. It is at least 1 so that degenerate
// geometry (e.g. 617 dimensions in 8 KB pages) still makes progress;
// in that single case a "page" spans several physical pages and is
// charged as such.
func PointsPerPage(params Params, dim int) int {
	c := params.PageBytes / EntryBytes(dim)
	if c < 1 {
		c = 1
	}
	return c
}

// NewPointFile allocates space for capacity points of dimensionality
// dim on d. The file starts empty.
func NewPointFile(d *Disk, dim, capacity int) *PointFile {
	if dim <= 0 {
		panic("disk: point dimensionality must be positive")
	}
	if capacity < 0 {
		panic("disk: negative point capacity")
	}
	ppp := PointsPerPage(d.params, dim)
	pages := (capacity + ppp - 1) / ppp
	if pages == 0 {
		pages = 1
	}
	// A point may be bigger than a physical page (ppp clamped to 1);
	// size the extent in bytes to fit either layout.
	perPoint := int64(EntryBytes(dim))
	pageBytes := int64(d.params.PageBytes)
	var size int64
	if perPoint > pageBytes {
		// Each point occupies ceil(perPoint/pageBytes) physical pages.
		pagesPerPoint := (perPoint + pageBytes - 1) / pageBytes
		size = int64(capacity) * pagesPerPoint * pageBytes
	} else {
		size = int64(pages) * pageBytes
	}
	f := d.Alloc(size)
	return &PointFile{file: f, dim: dim, ppp: ppp, cap: capacity}
}

// Stage stores points on a fresh disk with the paper's parameters at
// the given page size (DefaultParams().WithPageBytes) and zeroes its
// counters, so every access counted afterwards is the reader's. Disks
// keep counters and a head position, so each prediction stages its
// own.
func Stage(points [][]float64, pageBytes int) *PointFile {
	d := New(DefaultParams().WithPageBytes(pageBytes))
	pf := NewPointFile(d, len(points[0]), len(points))
	pf.AppendAll(points)
	d.ResetCounters()
	return pf
}

// Dim returns the dimensionality of stored points.
func (pf *PointFile) Dim() int { return pf.dim }

// Len returns the number of points currently stored.
func (pf *PointFile) Len() int { return pf.n }

// Cap returns the maximum number of points the file can hold.
func (pf *PointFile) Cap() int { return pf.cap }

// File returns the underlying extent, for page-level accounting.
func (pf *PointFile) File() *File { return pf.file }

// pageOf returns the file-relative physical page index of point i's
// first byte.
func (pf *PointFile) pageOf(i int) int64 {
	perPoint := int64(EntryBytes(pf.dim))
	pageBytes := int64(pf.file.disk.params.PageBytes)
	if perPoint > pageBytes {
		pagesPerPoint := (perPoint + pageBytes - 1) / pageBytes
		return int64(i) * pagesPerPoint
	}
	return int64(i) / int64(pf.ppp)
}

// byteOffset returns the byte offset of point i within the file.
func (pf *PointFile) byteOffset(i int) int64 {
	perPoint := int64(EntryBytes(pf.dim))
	pageBytes := int64(pf.file.disk.params.PageBytes)
	if perPoint > pageBytes {
		pagesPerPoint := (perPoint + pageBytes - 1) / pageBytes
		return int64(i) * pagesPerPoint * pageBytes
	}
	page := int64(i) / int64(pf.ppp)
	slot := int64(i) % int64(pf.ppp)
	return page*pageBytes + slot*perPoint
}

// chargeRange accounts one sequential sweep over points [start,
// start+count).
func (pf *PointFile) chargeRange(start, count int) {
	if count <= 0 {
		return
	}
	first := pf.pageOf(start)
	last := pf.lastPageOf(start + count - 1)
	pf.file.TouchPages(first, last-first+1)
}

// lastPageOf returns the file-relative page index of point i's last byte.
func (pf *PointFile) lastPageOf(i int) int64 {
	perPoint := int64(EntryBytes(pf.dim))
	pageBytes := int64(pf.file.disk.params.PageBytes)
	if perPoint > pageBytes {
		pagesPerPoint := (perPoint + pageBytes - 1) / pageBytes
		return int64(i)*pagesPerPoint + pagesPerPoint - 1
	}
	return int64(i) / int64(pf.ppp)
}

// AppendAll writes all points in pts at the end of the file in one
// sequential sweep.
func (pf *PointFile) AppendAll(pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	if pf.n+len(pts) > pf.cap {
		panic("disk: PointFile overflow")
	}
	start := pf.n
	for _, p := range pts {
		pf.writeRawPoint(pf.n, p)
		pf.n++
	}
	pf.chargeRange(start, len(pts))
}

func (pf *PointFile) writeRawPoint(i int, p []float64) {
	if len(p) != pf.dim {
		panic(fmt.Sprintf("disk: point dimension %d != file dimension %d", len(p), pf.dim))
	}
	buf := make([]byte, EntryBytes(pf.dim))
	off := 0
	for _, v := range p {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(float32(v)))
		off += 4
	}
	pf.file.writeRaw(buf, pf.byteOffset(i))
}

func (pf *PointFile) readRawPoint(i int, out []float64) {
	buf := make([]byte, EntryBytes(pf.dim))
	pf.file.readRaw(buf, pf.byteOffset(i))
	off := 0
	for j := 0; j < pf.dim; j++ {
		out[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:])))
		off += 4
	}
}

// ReadRange reads count points starting at index start as one
// sequential sweep and returns them as fresh slices.
func (pf *PointFile) ReadRange(start, count int) [][]float64 {
	if start < 0 || start+count > pf.n {
		panic(fmt.Sprintf("disk: read [%d, %d) outside %d stored points", start, start+count, pf.n))
	}
	if count == 0 {
		return nil
	}
	pts := make([][]float64, count)
	flat := make([]float64, count*pf.dim)
	for i := 0; i < count; i++ {
		p := flat[i*pf.dim : (i+1)*pf.dim]
		pf.readRawPoint(start+i, p)
		pts[i] = p
	}
	pf.chargeRange(start, count)
	return pts
}

// WriteRange overwrites count points starting at index start in one
// sequential sweep. The range must lie within the dense prefix.
func (pf *PointFile) WriteRange(start int, pts [][]float64) {
	if start < 0 || start+len(pts) > pf.n {
		panic(fmt.Sprintf("disk: write [%d, %d) outside %d stored points", start, start+len(pts), pf.n))
	}
	for i, p := range pts {
		pf.writeRawPoint(start+i, p)
	}
	pf.chargeRange(start, len(pts))
}

// ReadPoint reads the single point at index i (a random access).
func (pf *PointFile) ReadPoint(i int) []float64 {
	pts := pf.ReadRange(i, 1)
	return pts[0]
}

// ReadAll reads every stored point in one sequential sweep.
func (pf *PointFile) ReadAll() [][]float64 { return pf.ReadRange(0, pf.n) }
