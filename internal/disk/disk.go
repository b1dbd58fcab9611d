// Package disk simulates a page-granular disk with the cost model used
// throughout Lang & Singh (SIGMOD 2001): every access to a page that is
// not adjacent to the previously accessed page costs one seek
// (t_seek, average seek plus rotational latency), and every page moved
// costs one transfer (t_xfer, the time to ship one page at the disk's
// bandwidth).
//
// The disk stores real bytes, so code built on top of it (the on-disk
// bulk loader, the resampling predictor's k consecutive areas) actually
// round-trips its data rather than merely pricing hypothetical I/O.
// I/O is charged two ways only: PointFile sweeps over stored points,
// and File.TouchPages for pages whose contents need not exist (the
// on-disk build's directory pages). Counters read before and after a
// phase and subtracted (Counters.Sub) attribute its cost. There is no
// cache: every page touch, read or write, is physical I/O, as the
// paper prices it.
package disk

import (
	"fmt"
	"sync"
)

// Params describes the physical characteristics of the simulated disk.
type Params struct {
	// PageBytes is the size of one disk page in bytes.
	PageBytes int
	// SeekSeconds is the average seek plus rotational latency.
	SeekSeconds float64
	// XferSeconds is the transfer time for a single page.
	XferSeconds float64
}

// DefaultParams are the parameters the paper assumes in Section 4.6:
// 8 KByte pages, 10 ms average seek plus latency, and a 20 MB/s
// bandwidth giving 0.4 ms per page transfer.
func DefaultParams() Params {
	return Params{PageBytes: 8192, SeekSeconds: 0.010, XferSeconds: 0.0004}
}

// WithPageBytes returns a copy of p with the page size replaced and the
// transfer time rescaled proportionally (constant bandwidth), as the
// paper does when sweeping page sizes in Section 6.1.
func (p Params) WithPageBytes(pageBytes int) Params {
	if pageBytes <= 0 {
		panic("disk: page size must be positive")
	}
	scaled := p
	scaled.XferSeconds = p.XferSeconds * float64(pageBytes) / float64(p.PageBytes)
	scaled.PageBytes = pageBytes
	return scaled
}

// Counters accumulates disk activity.
type Counters struct {
	// Seeks is the number of accesses to a page not adjacent to the
	// previously accessed page.
	Seeks int64
	// Transfers is the number of pages moved between disk and memory.
	Transfers int64
}

// Add returns the element-wise sum of c and o.
func (c Counters) Add(o Counters) Counters {
	return Counters{Seeks: c.Seeks + o.Seeks, Transfers: c.Transfers + o.Transfers}
}

// Sub returns the element-wise difference c - o.
func (c Counters) Sub(o Counters) Counters {
	return Counters{Seeks: c.Seeks - o.Seeks, Transfers: c.Transfers - o.Transfers}
}

// CostSeconds prices the counters under params: seeks*t_seek +
// transfers*t_xfer.
func (c Counters) CostSeconds(p Params) float64 {
	return float64(c.Seeks)*p.SeekSeconds + float64(c.Transfers)*p.XferSeconds
}

// String renders the counters for reports.
func (c Counters) String() string {
	return fmt.Sprintf("%d seeks, %d transfers", c.Seeks, c.Transfers)
}

// Disk is a simulated disk. The zero value is not usable; construct
// with New.
//
// All bookkeeping state (counters, head position, allocation metadata)
// is guarded by a mutex so that observability code may read counters,
// and allocate new extents, concurrently with accesses on other
// goroutines (e.g. while parallelFor workers run). Page bytes
// live in each File and are not guarded: the simulation models a
// single logical I/O stream, and all data accesses to a file must stay
// on one goroutine at a time.
type Disk struct {
	params Params

	mu       sync.Mutex
	pages    int64 // allocated pages
	counters Counters
	lastPage int64 // last page under the head, noPage if none
}

// New returns an empty disk with the given parameters.
func New(params Params) *Disk {
	if params.PageBytes <= 0 {
		panic("disk: page size must be positive")
	}
	return &Disk{params: params, lastPage: noPage}
}

// BufferConfig is the empty option set of NewBuffered. It is kept only
// because the benchmark module (bench/trace.go) names it.
type BufferConfig struct{}

// NewBuffered is New. It is kept only because the benchmark module
// (bench/trace.go) calls it; new code calls New.
func NewBuffered(params Params, _ BufferConfig) *Disk { return New(params) }

// DropBuffers does nothing: the disk has no cache. It is kept only
// because the benchmark module (bench/trace.go) calls it.
func (d *Disk) DropBuffers() {}

// Params returns the disk's physical parameters.
func (d *Disk) Params() Params { return d.params }

// Counters returns the activity accumulated since construction or the
// last ResetCounters. Safe for concurrent use with accesses.
func (d *Disk) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counters
}

// ResetCounters zeroes the accumulated activity and forgets the head
// position (the next access will seek).
func (d *Disk) ResetCounters() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.counters = Counters{}
	d.lastPage = noPage
}

// noPage marks an unknown head position: the next access always seeks.
const noPage = -1 << 62

// Alloc reserves a contiguous extent large enough for size bytes and
// returns a File over it. The file owns the bytes of its extent, so
// allocation costs the new extent only, never a copy of earlier ones.
// Allocation itself performs no I/O. Safe for concurrent use with
// Counters and with other Allocs.
func (d *Disk) Alloc(size int64) *File {
	if size < 0 {
		panic("disk: negative allocation")
	}
	pageBytes := int64(d.params.PageBytes)
	numPages := (size + pageBytes - 1) / pageBytes
	if numPages == 0 {
		numPages = 1
	}
	data := make([]byte, numPages*pageBytes)
	d.mu.Lock()
	defer d.mu.Unlock()
	f := &File{
		disk:      d,
		startPage: d.pages,
		numPages:  numPages,
		size:      size,
		data:      data,
	}
	d.pages += numPages
	return f
}

// access records the cost of touching the inclusive absolute page
// range [first, last] in one sequential sweep: one seek unless the
// sweep continues from the head position (the next page, or a
// re-touch of the page still under the head), one transfer per page.
// Reads and writes cost the same.
func (d *Disk) access(first, last int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if first != d.lastPage+1 && first != d.lastPage {
		d.counters.Seeks++
	}
	d.counters.Transfers += last - first + 1
	d.lastPage = last
}

// File is a contiguous extent of a Disk. Its bytes are moved by the
// PointFile over it, which charges page-granular I/O per sweep;
// TouchPages charges pages without moving bytes.
type File struct {
	disk      *Disk
	startPage int64
	numPages  int64
	size      int64
	data      []byte // the extent's bytes, numPages pages long
}

// Disk returns the disk this file lives on.
func (f *File) Disk() *Disk { return f.disk }

// boundsCheck panics unless [off, off+n) lies within the file's
// logical size. Checking against the logical size rather than the
// extent capacity keeps reads past EOF from silently returning zeros
// out of the slack bytes of the last page.
func (f *File) boundsCheck(off int64, n int) {
	if off < 0 || off+int64(n) > f.size {
		panic(fmt.Sprintf("disk: access [%d, %d) outside file of %d bytes", off, off+int64(n), f.size))
	}
}

// readRaw and writeRaw move bytes without charging I/O. PointFile
// moves its points with them and charges each sweep via TouchPages.
func (f *File) readRaw(b []byte, off int64) {
	f.boundsCheck(off, len(b))
	copy(b, f.data[off:])
}

func (f *File) writeRaw(b []byte, off int64) {
	f.boundsCheck(off, len(b))
	copy(f.data[off:], b)
}

// TouchPages charges the I/O for accessing count pages starting at the
// file-relative page index start, without moving data. The on-disk
// index build uses it for directory-page writes whose contents the
// simulation does not need to materialize.
func (f *File) TouchPages(start, count int64) {
	if count <= 0 {
		return
	}
	if start < 0 || start+count > f.numPages {
		panic("disk: TouchPages outside file")
	}
	f.disk.access(f.startPage+start, f.startPage+start+count-1)
}
