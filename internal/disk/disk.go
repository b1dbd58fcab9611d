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
// Counters can be snapshotted and diffed to attribute cost to phases.
// There is no cache: every page touch, read or write, is physical I/O,
// as the paper prices it.
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
	// Hits and Misses count page touches that were and were not
	// already resident. The simulated disk has no cache and leaves
	// both zero; the pager's fault-granular mmap accounting fills them
	// (a re-touch of a faulted page is a hit and costs nothing).
	Hits   int64
	Misses int64
}

// Add returns the element-wise sum of c and o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Seeks:     c.Seeks + o.Seeks,
		Transfers: c.Transfers + o.Transfers,
		Hits:      c.Hits + o.Hits,
		Misses:    c.Misses + o.Misses,
	}
}

// Sub returns the element-wise difference c - o.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Seeks:     c.Seeks - o.Seeks,
		Transfers: c.Transfers - o.Transfers,
		Hits:      c.Hits - o.Hits,
		Misses:    c.Misses - o.Misses,
	}
}

// CostSeconds prices the counters under params: seeks*t_seek +
// transfers*t_xfer. Hits are free.
func (c Counters) CostSeconds(p Params) float64 {
	return float64(c.Seeks)*p.SeekSeconds + float64(c.Transfers)*p.XferSeconds
}

// HitRate returns the fraction of page touches that were hits, or 0
// when no touches were classified.
func (c Counters) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// String renders the counters for reports.
func (c Counters) String() string {
	s := fmt.Sprintf("%d seeks, %d transfers", c.Seeks, c.Transfers)
	if c.Hits != 0 || c.Misses != 0 {
		s += fmt.Sprintf(", %d hits, %d misses (%.1f%% hit rate)", c.Hits, c.Misses, 100*c.HitRate())
	}
	return s
}

// Disk is a simulated disk. The zero value is not usable; construct
// with New.
//
// All bookkeeping state (counters, head position, allocation metadata)
// is guarded by a mutex so that observability code may snapshot and
// diff counters, and allocate new extents, concurrently with accesses
// on other goroutines (e.g. while parallelFor workers run). Page bytes
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

// Snapshot is Counters under a name that reads as a phase boundary:
// take one before a phase, another after, and Sub them to attribute
// the phase's I/O. Safe for concurrent use with accesses.
func (d *Disk) Snapshot() Counters { return d.Counters() }

// DiffSince returns the activity since a snapshot taken earlier with
// Snapshot or Counters.
func (d *Disk) DiffSince(before Counters) Counters {
	return d.Counters().Sub(before)
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

// CostSeconds prices the accumulated activity under the disk's params.
func (d *Disk) CostSeconds() float64 { return d.Counters().CostSeconds(d.params) }

// AllocatedPages returns the total number of pages allocated so far.
// Safe for concurrent use with Alloc and accesses.
func (d *Disk) AllocatedPages() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// Alloc reserves a contiguous extent large enough for size bytes and
// returns a File over it. The file owns the bytes of its extent, so
// allocation costs the new extent only, never a copy of earlier ones.
// Allocation itself performs no I/O. Safe for concurrent use with
// counter snapshots and AllocatedPages.
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

// File is a contiguous extent of a Disk. Reads and writes are
// byte-addressed within the file and are charged page-granular I/O.
type File struct {
	disk      *Disk
	startPage int64
	numPages  int64
	size      int64
	data      []byte // the extent's bytes, numPages pages long
}

// Size returns the logical size of the file in bytes.
func (f *File) Size() int64 { return f.size }

// Disk returns the disk this file lives on.
func (f *File) Disk() *Disk { return f.disk }

// Pages returns the number of pages in the file's extent.
func (f *File) Pages() int64 { return f.numPages }

// StartPage returns the absolute page number of the file's first page.
func (f *File) StartPage() int64 { return f.startPage }

// boundsCheck panics unless [off, off+n) lies within the file's
// logical size. Checking against the logical size rather than the
// extent capacity keeps reads past EOF from silently returning zeros
// out of the slack bytes of the last page.
func (f *File) boundsCheck(off int64, n int) {
	if off < 0 || off+int64(n) > f.size {
		panic(fmt.Sprintf("disk: access [%d, %d) outside file of %d bytes", off, off+int64(n), f.size))
	}
}

// pageRange resolves the absolute pages spanned by the non-empty byte
// range [off, off+n).
func (f *File) pageRange(off int64, n int) (first, last int64) {
	f.boundsCheck(off, n)
	pageBytes := int64(f.disk.params.PageBytes)
	first = f.startPage + off/pageBytes
	last = f.startPage + (off+int64(n)-1)/pageBytes
	return first, last
}

// ReadAt reads len(b) bytes starting at byte offset off, charging the
// page accesses to the disk. Zero-length reads are true no-ops: they
// are bounds-checked but resolve no page, charge no I/O and do not
// move the head.
func (f *File) ReadAt(b []byte, off int64) {
	if len(b) == 0 {
		f.boundsCheck(off, 0)
		return
	}
	first, last := f.pageRange(off, len(b))
	f.disk.access(first, last)
	copy(b, f.data[off:])
}

// WriteAt writes b starting at byte offset off, charging the page
// accesses to the disk. Zero-length writes are true no-ops, like
// zero-length reads.
func (f *File) WriteAt(b []byte, off int64) {
	if len(b) == 0 {
		f.boundsCheck(off, 0)
		return
	}
	first, last := f.pageRange(off, len(b))
	f.disk.access(first, last)
	copy(f.data[off:], b)
}

// readRaw and writeRaw move bytes without charging I/O. They exist for
// higher-level abstractions in this package (PointFile) that perform
// their own page-granular accounting via TouchPages.
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
