// Package serve is the concurrent query-serving core: an epoch-based
// reader/writer split over the index structures of this repository.
//
// Readers never block and never take a lock on the data they search.
// Every query runs against immutable rtree.FlatTree snapshots
// published through atomic pointers; a reader pins a snapshot for the
// duration of one search with an acquire/validate protocol (load,
// increment the pin count, re-check the pointer and the retired flag,
// retry on failure), so a snapshot can never be observed after it was
// retired. The single logical writer ingests points into
// write-optimized rtree.DynamicTree shards (R*-tree insertion) under a
// mutex and periodically re-flattens a dirty shard into a fresh
// snapshot that is swapped in atomically — an LSM-flavored split
// between the ingest format and the read format. A superseded snapshot
// retires exactly once, when its last pin drains (or immediately at
// swap time if it was unpinned); retire-exactly-once is a
// compare-and-swap on the retired flag.
//
// # Sharding
//
// With Config.Shards = S > 1 the point set is dealt round-robin into S
// independent shards, each with its own ingest tree, snapshot pointer,
// and pin/retire lifecycle. The payoff is publication cost: a shard
// republishes when *its own* pending count reaches FlattenEvery, so
// each publication re-flattens (and, durably, rewrites) one shard of
// ~N/S points instead of the whole index — per-publication CPU and
// bytes written drop from O(N) to O(N/S) at the same average freshness
// (S small publications happen where one large one did). A k-NN query
// runs one best-first search over the roots of every shard snapshot,
// under one k-th-best bound and one (distance, lexicographic) neighbor
// heap (query.KNNSearchForest), which keeps results bit-identical to a
// single-tree server over the same points and reads only the pages, in
// every shard, that meet the query's global k-NN sphere.
//
// # Durable snapshots
//
// Durable publication has one layout at every shard count: each dirty
// shard writes one immutable, generation-named snapshot file
// (pager.ShardPath), and a small checksummed manifest
// (pager.WriteManifestAtomic) names every shard's current file. The
// manifest rename is the atomic commit point, and recovery refuses
// anything the manifest names but cannot verify.
//
// Every file a manifest names was verified after its write: publication
// reopens each file it wrote through pager.Open, which checks every
// checksum and structural invariant, and serves the generation from
// the reopened tree. How the file is read is the platform's choice,
// not a setting: mapped read-only and served zero-copy where the
// platform supports mmap (unmapped when the generation's last pin
// drains), read from the file elsewhere or when the map fails. A file
// that fails the check is the publication's error and is removed: the
// generation still serves from the resident tree, and no manifest
// names the file — the shard's previous file stays committed.
//
// # Admission
//
// k-NN and range queries are admitted through one bounded queue of
// 256 calls and served in batches: a single batcher goroutine drains
// up to 16 waiting calls, pins one snapshot per shard, and answers
// every call of the batch, in queue order, against that pinned set.
// Each k-NN call runs its own best-first search over all the pinned
// shards, so its reported page accesses are exactly the single-query
// optimum the paper's predictor estimates, whatever else shares the
// batch; range calls run a depth-first range search on each shard. A
// full queue rejects immediately with ErrOverloaded: backpressure
// surfaces to the caller instead of growing an unbounded backlog.
//
// Per-query latencies (queue wait plus search) are recorded in
// obs.LatencySketch reservoirs; Stats reports p50/p95/p99.
package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hdidx/internal/obs"
	"hdidx/internal/pager"
	"hdidx/internal/query"
	"hdidx/internal/rtree"
	"hdidx/internal/vec"
)

// ErrOverloaded reports that the admission queue was full; the caller
// should back off and retry.
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrClosed reports an operation on a closed server.
var ErrClosed = errors.New("serve: server closed")

// errNonFinite rejects a point or query with a NaN or infinite
// coordinate.
var errNonFinite = errors.New("serve: non-finite coordinate")

// MaxShards bounds Config.Shards.
const MaxShards = 64

// queueDepth bounds the admission queue; a full queue rejects with
// ErrOverloaded. batchSize is the most queued calls one batch answers
// against its pinned snapshot set; each call is still searched on its
// own, so the batch size changes no answer and no page count.
const (
	queueDepth = 256
	batchSize  = 16
)

// Config parameterizes a Server. The zero value of every field selects
// a sensible default.
type Config struct {
	// Geometry is the page geometry of the index (the dynamic ingest
	// trees derive their page capacities from it). A zero Geometry uses
	// rtree.NewGeometry over the dimensionality of the initial points.
	Geometry rtree.Geometry
	// Shards is the number of independent ingest shards (default 1,
	// max MaxShards). Points are dealt round-robin; each shard carries
	// its own snapshot and republishes independently, so publication
	// cost scales with the shard size, not the index size. Query
	// results are bit-identical for every shard count.
	Shards int
	// FlattenEvery is the number of points ingested into one shard
	// between that shard's publications (default 1024). Smaller values
	// mean fresher reads and more flatten work; ingested points are
	// invisible to queries until the next publication (call Flush to
	// force one).
	FlattenEvery int
	// SnapshotPath, when non-empty, makes publication durable, with one
	// layout at every shard count. The path names a checksummed
	// manifest; each dirty shard's snapshot is written to an immutable
	// generation-named side file (pager.ShardPath) and the manifest
	// rename commits the set atomically — a crash at any moment leaves
	// a fully consistent previous or new generation on disk, never a
	// torn or mixed one. New recovers the persisted points, and their
	// dimensionality, from this path before ingesting the initial
	// points, so a restarted server resumes from its last published
	// generation. In-process generation numbers restart at 1; shard
	// file and manifest generations continue from the recovered
	// manifest's, so a restart never rewrites a file the committed
	// manifest names. Every written file is reopened, verified and
	// served from the reopened tree, zero-copy from its mapping where
	// the platform supports mmap (see the package doc, Durable
	// snapshots). Empty (the default) serves purely in memory.
	SnapshotPath string
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.FlattenEvery <= 0 {
		c.FlattenEvery = 1024
	}
	return c
}

// snapshot is one published epoch of one shard: an immutable flat tree
// plus the pin accounting that decides when it may retire. When pg is
// non-nil it is the verified reopen of the generation's durable file,
// and the tree's arrays are views into its bytes — zero-copy into a
// read-only file mapping where pg is mapped. Retirement closes pg
// (unmapping exactly once, after the last pin drained — a pinned
// reader can therefore never touch unmapped memory). A shard's final
// generation is never superseded; Server.Close closes its pg once
// nothing can search it, without retiring it.
type snapshot struct {
	ft  *rtree.FlatTree
	gen int64
	pg  *pager.Snapshot

	pins       atomic.Int64
	superseded atomic.Bool
	retired    atomic.Bool

	onRetire func(*snapshot)
}

// release drops one pin; the last pin out of a superseded snapshot
// retires it.
func (sn *snapshot) release() {
	if sn.pins.Add(-1) == 0 && sn.superseded.Load() {
		sn.tryRetire()
	}
}

// tryRetire retires the snapshot if it is unpinned; the CAS makes the
// retirement exactly-once even when the writer (at swap time) and the
// last reader (at release time) race to perform it.
func (sn *snapshot) tryRetire() {
	if sn.pins.Load() == 0 && sn.retired.CompareAndSwap(false, true) {
		if sn.onRetire != nil {
			sn.onRetire(sn)
		}
	}
}

// shard is one independent slice of the index: its own ingest tree,
// snapshot pointer, and durable-file bookkeeping.
type shard struct {
	id  int
	cur atomic.Pointer[snapshot]

	// Mutated under Server.mu.
	dyn     *rtree.DynamicTree
	pending int
	// fileGen/fileBytes/fileCRC describe this shard's current durable
	// side file (durable mode only; fileGen 0 = none). New seeds them
	// from the recovered manifest.
	fileGen   int64
	fileBytes int64
	fileCRC   uint32

	pubs  atomic.Int64 // snapshots this shard published
	bytes atomic.Int64 // durable bytes written for this shard
}

// acquire pins the shard's current snapshot. The
// increment-then-validate loop guarantees the returned snapshot is not
// retired and cannot retire before the matching release: a snapshot
// only retires when unpinned and superseded, and validation re-checks
// both the pointer and the retired flag after the pin landed.
func (sh *shard) acquire() *snapshot {
	for {
		sn := sh.cur.Load()
		sn.pins.Add(1)
		if sh.cur.Load() == sn && !sn.retired.Load() {
			return sn
		}
		// Lost a race with a publication; the stray pin may be the
		// last one out and must honor retirement.
		sn.release()
	}
}

// Server is the epoch-based serving core. Create one with New; all
// methods are safe for concurrent use by any number of goroutines.
type Server struct {
	cfg Config
	dim int

	shards []*shard

	mu sync.Mutex // guards every shard's dyn/pending/file*, rr, and publication order
	rr int        // round-robin ingest cursor

	queue chan *call
	done  chan struct{}
	wg    sync.WaitGroup

	// sendMu fences a sender's check-closed-then-enqueue against
	// Close's final queue drain: senders hold it shared around the
	// re-check and the send, Close takes it exclusively after stopping
	// the batcher, so once Close's barrier passes no call can slip into
	// the queue behind the drain.
	sendMu sync.RWMutex

	closed atomic.Bool

	snapPageBytes int
	// fileGenBase is the generation of the manifest recovered at New
	// (0 if none); shard files and manifests are numbered fileGenBase
	// plus the in-process generation, so their names never repeat across
	// restarts of a durable path.
	fileGenBase int64

	gens      atomic.Int64 // publication events (generation counter)
	pubs      atomic.Int64 // snapshots published across shards
	retires   atomic.Int64
	overloads atomic.Int64
	flatNS    atomic.Int64 // cumulative flatten time, ns
	bytesW    atomic.Int64 // cumulative durable bytes (snapshots + manifests)

	knnLat   *obs.LatencySketch
	rangeLat *obs.LatencySketch
}

// call kinds on the unified admission queue.
const (
	callKNN = iota
	callRange
)

type call struct {
	kind   int
	q      []float64 // query point (k-NN) or sphere center (range)
	k      int
	radius float64
	start  time.Time
	reply  chan reply
}

type reply struct {
	res Result
	n   int // range count
	err error
}

// Result is the outcome of one k-NN query.
type Result struct {
	// Neighbors are the k nearest points, closest first. They are
	// private copies — retaining or mutating them is always safe.
	Neighbors [][]float64
	// LeafAccesses and DirAccesses count the pages the query's
	// best-first search read: in every shard, the nodes that meet the
	// query's k-NN sphere.
	LeafAccesses int
	DirAccesses  int
	// Radius is the distance to the k-th neighbor.
	Radius float64
}

// New starts a server over the initial points (which may be empty when
// Config.Geometry says how wide future points are). When
// Config.SnapshotPath names an existing manifest, the points of the
// shard files it names are recovered first — the restarted server
// resumes from the last durably published generation, at the
// manifest's dimensionality — then the initial points are ingested on
// top, and the union is published as generation 1. A manifest that
// exists but fails verification is an error, never silently ignored;
// so is a shard count or a configured dimensionality that does not
// match it, a missing or altered shard file, or a snapshot file where
// the manifest belongs. A failed boot publication is an error too; each
// shard whose new file failed keeps, on disk and in the manifest, the
// file recovery read.
func New(initial [][]float64, cfg Config) (*Server, error) {
	if cfg.Shards < 0 || cfg.Shards > MaxShards {
		return nil, fmt.Errorf("serve: %d shards outside [1, %d]", cfg.Shards, MaxShards)
	}
	cfg = cfg.withDefaults()

	var manifest *pager.Manifest
	if cfg.SnapshotPath != "" {
		switch _, err := os.Stat(cfg.SnapshotPath); {
		case err == nil:
			if manifest, err = pager.ReadManifest(cfg.SnapshotPath); err != nil {
				return nil, fmt.Errorf("serve: recover manifest: %w", err)
			}
			if len(manifest.Shards) != cfg.Shards {
				return nil, fmt.Errorf("serve: manifest has %d shards, configured %d — shard count cannot change across restarts of a durable path",
					len(manifest.Shards), cfg.Shards)
			}
		case !os.IsNotExist(err):
			return nil, fmt.Errorf("serve: recover manifest: %w", err)
		}
	}
	g := cfg.Geometry
	if manifest != nil && g.Dim > 0 && g.Dim != manifest.Dim {
		return nil, fmt.Errorf("serve: manifest %s records dimension %d, configured %d",
			cfg.SnapshotPath, manifest.Dim, g.Dim)
	}
	if g.Dim < 1 {
		dim := 0
		switch {
		case manifest != nil:
			dim = manifest.Dim
		case len(initial) > 0 && len(initial[0]) > 0:
			dim = len(initial[0])
		default:
			return nil, fmt.Errorf("serve: no geometry and no initial points to derive one from")
		}
		derived := rtree.NewGeometry(dim)
		if g.PageBytes > 0 { // keep configured page settings, derive only the width
			derived.PageBytes = g.PageBytes
		}
		if g.Utilization > 0 {
			derived.Utilization = g.Utilization
		}
		g = derived
	}
	pb := g.PageBytes
	if pb < pager.MinPageBytes {
		pb = rtree.NewGeometry(1).PageBytes
	}
	s := &Server{
		cfg:           cfg,
		dim:           g.Dim,
		shards:        make([]*shard, cfg.Shards),
		queue:         make(chan *call, queueDepth),
		done:          make(chan struct{}),
		snapPageBytes: pb,
		knnLat:        obs.NewLatencySketch(0),
		rangeLat:      obs.NewLatencySketch(0),
	}
	for i := range s.shards {
		s.shards[i] = &shard{id: i, dyn: rtree.NewDynamic(g)}
	}
	if manifest != nil {
		s.fileGenBase = manifest.Generation
		for i, ms := range manifest.Shards {
			if err := s.recoverShard(s.shards[i], ms); err != nil {
				return nil, err
			}
		}
	}
	for i, p := range initial {
		if len(p) != s.dim {
			return nil, fmt.Errorf("serve: point %d has dimension %d, want %d", i, len(p), s.dim)
		}
		if !vec.Finite(p) {
			return nil, fmt.Errorf("serve: point %d has a non-finite coordinate", i)
		}
		s.shards[s.rr%len(s.shards)].dyn.Insert(vec.Clone(p))
		s.rr++
	}
	s.mu.Lock()
	err := s.publishLocked(s.shards)
	s.mu.Unlock()
	if err != nil {
		// No reader ever saw these snapshots; release their mappings.
		for _, sh := range s.shards {
			if pg := sh.cur.Load().pg; pg != nil {
				pg.Close()
			}
		}
		return nil, err
	}
	s.wg.Add(1)
	go s.batchLoop()
	return s, nil
}

// recoverShard verifies the file the recovered manifest names for sh
// against the recorded size and header checksum, opens it with
// pager.Open, and re-ingests its rows into sh, preserving the
// assignment (and with it the balance of publication costs). The file
// is then sh's current one until a manifest names its successor. The
// rows are copied, so the snapshot is released before recoverShard
// returns. Any inconsistency — a missing or altered file, or one of
// another dimensionality — is a loud error: recovery never serves a
// mixed or partial generation.
func (s *Server) recoverShard(sh *shard, ms pager.ManifestShard) error {
	if ms.Generation == 0 {
		return nil // durably empty shard
	}
	path := pager.ShardPath(s.cfg.SnapshotPath, sh.id, ms.Generation)
	crc, size, err := pager.FileSummary(path)
	if err != nil {
		return fmt.Errorf("serve: recover shard %d (generation %d): %w", sh.id, ms.Generation, err)
	}
	if size != ms.Bytes || crc != ms.HeaderCRC {
		return fmt.Errorf("serve: recover shard %d: file %s is %d bytes with header CRC %08x, manifest expects %d bytes with %08x",
			sh.id, path, size, crc, ms.Bytes, ms.HeaderCRC)
	}
	pg, err := pager.Open(path)
	if err != nil {
		return fmt.Errorf("serve: recover shard %d: %w", sh.id, err)
	}
	defer pg.Close()
	ft := pg.Tree()
	if ft.NumPoints > 0 && ft.Dim != s.dim {
		return fmt.Errorf("serve: recover shard %d: file %s has dimension %d, manifest %d", sh.id, path, ft.Dim, s.dim)
	}
	for r := 0; r < ft.NumPoints; r++ {
		sh.dyn.Insert(vec.Clone(ft.Points.Row(r)))
	}
	sh.fileGen, sh.fileBytes, sh.fileCRC = ms.Generation, ms.Bytes, ms.HeaderCRC
	return nil
}

// acquireAll pins every shard's current snapshot, in shard order.
func (s *Server) acquireAll() []*snapshot {
	sns := make([]*snapshot, len(s.shards))
	for i, sh := range s.shards {
		sns[i] = sh.acquire()
	}
	return sns
}

func releaseAll(sns []*snapshot) {
	for _, sn := range sns {
		sn.release()
	}
}

// publishHook, when non-nil, observes every shard publication just
// before the swap, with the resident flattened tree and the snapshot
// about to go live. Tests use it to poison the resident arrays of an
// mmap-backed generation, proving served rows come from the mapping.
var publishHook func(resident *rtree.FlatTree, sn *snapshot)

// writtenHook, when non-nil, observes every durable snapshot file
// between its atomic write and the reopen that verifies it. Tests use
// it to damage the written bytes.
var writtenHook func(path string)

// publishLocked is one publication event: it flattens each target
// shard's dynamic tree into a fresh snapshot, writes the dirty shards
// and the manifest when Config.SnapshotPath is set, and swaps the new
// snapshots in. With no targets it is a pure no-op — no generation is
// consumed, nothing is flattened, no file is touched. Caller holds
// s.mu.
//
// The durable write happens before the swap, so a generation served
// from its file is on disk before any reader can see it. A durability
// error (the write, the verifying reopen, or the manifest failed) is
// still returned after the in-memory swap — the new generation is live
// for queries, but the on-disk state holds the previous consistent
// one.
func (s *Server) publishLocked(targets []*shard) error {
	if len(targets) == 0 {
		return nil
	}
	gen := s.gens.Add(1)
	var pubErr error
	manifestDirty := false
	for _, sh := range targets {
		t0 := time.Now()
		ft := sh.dyn.Flatten()
		s.flatNS.Add(int64(time.Since(t0)))
		sn := &snapshot{ft: ft, gen: gen}
		sn.onRetire = func(dead *snapshot) {
			s.retires.Add(1)
			if dead.pg != nil {
				dead.pg.Close() // unmap: the last pin has drained
			}
		}
		if s.cfg.SnapshotPath != "" {
			if err := s.writeShardLocked(sh, sn); err != nil {
				if pubErr == nil {
					pubErr = err
				}
			} else {
				manifestDirty = true
			}
		}
		if publishHook != nil {
			publishHook(ft, sn)
		}
		old := sh.cur.Swap(sn)
		sh.pending = 0
		sh.pubs.Add(1)
		s.pubs.Add(1)
		if old != nil {
			old.superseded.Store(true)
			old.tryRetire()
		}
	}
	if manifestDirty {
		if err := s.writeManifestLocked(gen); err != nil {
			if pubErr == nil {
				pubErr = err
			}
		} else {
			s.sweepStaleLocked()
		}
	}
	return pubErr
}

// writeShardLocked writes sn's tree to the shard's next durable file
// and reopens it with pager.Open, which verifies every checksum and
// structural invariant; sn then serves the reopened tree (zero-copy
// from the mapping where the platform maps). Any failure — the write,
// the reopen, or the summary — is returned, leaves sn on its resident
// tree, and removes the file, best-effort like the sweep: it is not
// recorded, so no manifest names it. Its generation is past every one
// the committed manifest names, so the removed file is never a
// committed one. Caller holds s.mu.
func (s *Server) writeShardLocked(sh *shard, sn *snapshot) error {
	fileGen := s.fileGenBase + sn.gen
	path := pager.ShardPath(s.cfg.SnapshotPath, sh.id, fileGen)
	fail := func(err error) error {
		os.Remove(path)
		return fmt.Errorf("serve: durable publication of generation %d (shard %d): %w", sn.gen, sh.id, err)
	}
	n, err := pager.WriteFileAtomic(path, sn.ft, s.snapPageBytes)
	if err != nil {
		return fail(err)
	}
	sh.bytes.Add(n)
	s.bytesW.Add(n)
	if writtenHook != nil {
		writtenHook(path)
	}
	pg, err := pager.Open(path)
	if err != nil {
		return fail(err)
	}
	crc, size, err := pager.FileSummary(path)
	if err != nil {
		pg.Close()
		return fail(err)
	}
	sn.ft, sn.pg = pg.Tree(), pg
	sh.fileGen, sh.fileBytes, sh.fileCRC = fileGen, size, crc
	return nil
}

// writeManifestLocked commits the current shard-file set durably.
// Caller holds s.mu.
func (s *Server) writeManifestLocked(gen int64) error {
	m := &pager.Manifest{Generation: s.fileGenBase + gen, Dim: s.dim, Shards: make([]pager.ManifestShard, len(s.shards))}
	for i, sh := range s.shards {
		m.Shards[i] = pager.ManifestShard{Generation: sh.fileGen, Bytes: sh.fileBytes, HeaderCRC: sh.fileCRC}
	}
	n, err := pager.WriteManifestAtomic(s.cfg.SnapshotPath, m)
	if err != nil {
		return fmt.Errorf("serve: manifest publication of generation %d: %w", gen, err)
	}
	s.bytesW.Add(n)
	return nil
}

// sweepStaleLocked deletes shard side files the manifest just written
// does not name, and the temporaries of crashed shard-file writes
// (pager.ShardTemps). It runs only after a successful manifest write,
// which named every shard's current file, so a crash can never leave
// the durable manifest pointing at a swept file. Caller holds s.mu,
// so no write of this process is in flight.
func (s *Server) sweepStaleLocked() {
	files, err := pager.ShardFiles(s.cfg.SnapshotPath)
	if err != nil {
		return
	}
	for _, f := range files {
		id, gen, ok := pager.ParseShardPath(s.cfg.SnapshotPath, f)
		if !ok || id >= len(s.shards) {
			continue
		}
		if gen != s.shards[id].fileGen {
			os.Remove(f)
		}
	}
	for _, f := range pager.ShardTemps(s.cfg.SnapshotPath) {
		os.Remove(f)
	}
}

// Insert ingests one point into the next round-robin shard. The point
// is copied; it becomes visible to queries at that shard's next
// publication (every Config.FlattenEvery inserts into the shard, or on
// Flush). A point with a non-finite coordinate is rejected.
func (s *Server) Insert(p []float64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if len(p) != s.dim {
		return fmt.Errorf("serve: point dimension %d, index dimension %d", len(p), s.dim)
	}
	if !vec.Finite(p) {
		return errNonFinite
	}
	cp := vec.Clone(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() { // re-check under s.mu: Close may have won the race
		return ErrClosed
	}
	sh := s.shards[s.rr%len(s.shards)]
	s.rr++
	sh.dyn.Insert(cp)
	sh.pending++
	if sh.pending >= s.cfg.FlattenEvery {
		return s.publishLocked([]*shard{sh})
	}
	return nil
}

// Flush publishes any ingested-but-unpublished points immediately —
// only the dirty shards are re-flattened and rewritten; with nothing
// pending anywhere Flush is a pure no-op that consumes no generation
// and touches no file. On a closed server it returns ErrClosed without
// publishing — Close is final; no generation may appear after it (the
// closed flag is re-checked under s.mu, which Close fences after
// stopping the batcher, so a Flush that loses the race with Close
// cannot publish on the dead server). Stats and Generation remain
// readable after Close: they only observe the last snapshots, they
// cannot create one.
func (s *Server) Flush() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	var dirty []*shard
	for _, sh := range s.shards {
		if sh.pending > 0 {
			dirty = append(dirty, sh)
		}
	}
	return s.publishLocked(dirty)
}

// enqueue admits c with the closed/overload protocol and waits for the
// batcher's reply.
func (s *Server) enqueue(c *call) (reply, error) {
	// Enqueue under the shared send lock with a re-check of closed:
	// a call that slips past the caller's closed check while Close runs
	// must either observe closed here, or complete its send before
	// Close's exclusive barrier — in which case the final drain finds
	// it. Without this fence a send could land after the drain emptied
	// the queue, orphaning the call.
	s.sendMu.RLock()
	if s.closed.Load() {
		s.sendMu.RUnlock()
		return reply{}, ErrClosed
	}
	select {
	case s.queue <- c:
		s.sendMu.RUnlock()
	default:
		s.sendMu.RUnlock()
		s.overloads.Add(1)
		return reply{}, ErrOverloaded
	}
	select {
	case r := <-c.reply:
		return r, r.err
	case <-s.done:
		// The server is closing; the batcher may still have answered
		// this call before exiting.
		select {
		case r := <-c.reply:
			return r, r.err
		default:
			return reply{}, ErrClosed
		}
	}
}

// KNN answers one k-NN query. The call enqueues on the admission queue
// (rejecting with ErrOverloaded when full) and is answered by the
// batcher with the optimal best-first search over the batch's pinned
// snapshots. A query with a non-finite coordinate is an error.
func (s *Server) KNN(q []float64, k int) (Result, error) {
	if s.closed.Load() {
		return Result{}, ErrClosed
	}
	if len(q) != s.dim {
		return Result{}, fmt.Errorf("serve: query dimension %d, index dimension %d", len(q), s.dim)
	}
	if !vec.Finite(q) {
		return Result{}, errNonFinite
	}
	c := &call{kind: callKNN, q: q, k: k, start: time.Now(), reply: make(chan reply, 1)}
	r, err := s.enqueue(c)
	return r.res, err
}

// RangeCount returns the number of indexed points within radius of
// center. Like KNN it goes through the admission queue (a full queue
// rejects with ErrOverloaded) and is answered by the batcher against
// the same pinned snapshots as the rest of its batch; the count is
// bit-identical to a direct query.RangeSearchFlat over the served
// points. A non-finite center or a NaN radius is an error.
func (s *Server) RangeCount(center []float64, radius float64) (int, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if len(center) != s.dim {
		return 0, fmt.Errorf("serve: query dimension %d, index dimension %d", len(center), s.dim)
	}
	if !vec.Finite(center) {
		return 0, errNonFinite
	}
	if radius < 0 || math.IsNaN(radius) {
		return 0, fmt.Errorf("serve: radius %v is negative or NaN", radius)
	}
	c := &call{kind: callRange, q: center, radius: radius, start: time.Now(), reply: make(chan reply, 1)}
	r, err := s.enqueue(c)
	return r.n, err
}

// batchLoop is the single batcher goroutine: it blocks for one call,
// then opportunistically drains up to batchSize-1 more and answers
// them all against one pinned snapshot set.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	calls := make([]*call, 0, batchSize)
	for {
		select {
		case <-s.done:
			return
		case c := <-s.queue:
			calls = append(calls[:0], c)
		drain:
			for len(calls) < batchSize {
				select {
				case c2 := <-s.queue:
					calls = append(calls, c2)
				default:
					break drain
				}
			}
			s.serveBatch(calls)
		}
	}
}

// serveBatch answers the calls against one pinned snapshot per shard,
// in queue order. A k-NN call runs one best-first search over the
// roots of every pinned shard (query.KNNSearchForest); a range call
// sums the shards' range counts.
func (s *Server) serveBatch(calls []*call) {
	sns := s.acquireAll()
	trees := make([]*rtree.FlatTree, len(sns))
	total := 0
	for i, sn := range sns {
		trees[i] = sn.ft
		total += sn.ft.NumPoints
	}
	for _, c := range calls {
		if c.kind == callRange {
			n := 0
			for _, ft := range trees {
				pts, _ := query.RangeSearchFlat(ft, query.Sphere{Center: c.q, Radius: c.radius})
				n += pts
			}
			s.rangeLat.Observe(time.Since(c.start))
			c.reply <- reply{n: n}
			continue
		}
		// Validate against the snapshot set actually being searched —
		// the pinned set is the authority on what it can serve.
		if c.k < 1 || c.k > total {
			c.reply <- reply{err: fmt.Errorf("serve: k=%d outside [1, %d]", c.k, total)}
			continue
		}
		s.answerKNN(c, query.KNNSearchForest(trees, c.q, c.k))
	}
	releaseAll(sns)
}

// answerKNN materializes one k-NN answer and completes the call. The
// neighbor rows alias the snapshots' packed point matrices (the
// KNNSearchFlat aliasing contract), so the answer carries copies.
func (s *Server) answerKNN(c *call, r query.Result) {
	res := Result{
		Neighbors:    vec.ClonePoints(r.Neighbors),
		LeafAccesses: r.LeafAccesses,
		DirAccesses:  r.DirAccesses,
		Radius:       r.Radius,
	}
	s.knnLat.Observe(time.Since(c.start))
	c.reply <- reply{res: res}
}

// ShardStats is the per-shard breakdown within Stats (the facade's
// ShardServeStats).
type ShardStats struct {
	// Points is the number of points in the shard's current snapshot.
	Points int
	// Generation is the publication event that produced the shard's
	// current snapshot.
	Generation int64
	// Publications counts the snapshots this shard has published.
	Publications int64
	// BytesWritten is the shard's cumulative durable snapshot bytes.
	BytesWritten int64
	// Mapped reports whether the shard's current snapshot is served
	// zero-copy from a read-only file mapping.
	Mapped bool
}

// Stats is a point-in-time digest of the server (the facade's
// ServerStats).
type Stats struct {
	// Points is the number of points across the current snapshots
	// (ingested but unpublished points are excluded).
	Points int
	// Generation is the number of publication events since start. Each
	// event republishes only its dirty shards.
	Generation int64
	// Publications counts snapshots published across all shards; with
	// one shard it equals Generation.
	Publications int64
	// RetiredSnapshots counts superseded snapshots whose readers have
	// all drained.
	RetiredSnapshots int64
	// Overloads counts calls rejected with ErrOverloaded.
	Overloads int64
	// Deadlines is always 0: no call has a queue deadline. The field
	// stays only because the benchmark module (bench/) reads it.
	Deadlines int64
	// FlattenTime is the cumulative time spent re-flattening shards at
	// publication, and BytesWritten the cumulative durable bytes
	// (snapshot files plus manifests). Their per-generation rates are
	// the publication cost sharding divides by S.
	FlattenTime  time.Duration
	BytesWritten int64
	// Mapped reports whether every current snapshot is served
	// zero-copy from a read-only file mapping: the case for a durable
	// server where the platform supports mmap, unless a shard's current
	// file failed its check or could not be mapped (see the package
	// doc, Durable snapshots). Every file the manifest names was
	// verified after its write, mapped or not. After Close it tells how
	// the final snapshots were served; their files are released.
	Mapped bool
	// Shards holds the per-shard breakdown, in shard order.
	Shards []ShardStats
	// KNN and Range are the per-query latency digests (queue wait plus
	// search).
	KNN, Range obs.LatencySummary
}

// Stats digests the server's counters and latency sketches.
func (s *Server) Stats() Stats {
	sns := s.acquireAll()
	st := Stats{
		Generation:       s.gens.Load(),
		Publications:     s.pubs.Load(),
		RetiredSnapshots: s.retires.Load(),
		Overloads:        s.overloads.Load(),
		FlattenTime:      time.Duration(s.flatNS.Load()),
		BytesWritten:     s.bytesW.Load(),
		Mapped:           true,
		Shards:           make([]ShardStats, len(sns)),
		KNN:              s.knnLat.Summary(),
		Range:            s.rangeLat.Summary(),
	}
	for i, sn := range sns {
		sh := s.shards[i]
		st.Points += sn.ft.NumPoints
		mapped := sn.pg != nil && sn.pg.Backend() == pager.BackendMmap
		st.Mapped = st.Mapped && mapped
		st.Shards[i] = ShardStats{
			Points:       sn.ft.NumPoints,
			Generation:   sn.gen,
			Publications: sh.pubs.Load(),
			BytesWritten: sh.bytes.Load(),
			Mapped:       mapped,
		}
	}
	releaseAll(sns)
	return st
}

// Generation returns the number of publication events so far.
func (s *Server) Generation() int64 { return s.gens.Load() }

// Len returns the number of points across the current snapshots.
func (s *Server) Len() int {
	sns := s.acquireAll()
	n := 0
	for _, sn := range sns {
		n += sn.ft.NumPoints
	}
	releaseAll(sns)
	return n
}

// Dim returns the dimensionality the server indexes.
func (s *Server) Dim() int { return s.dim }

// Close stops the batcher, fails queued and future calls with
// ErrClosed, and releases each shard's final snapshot file (its
// mapping, where mapped). Stats, Len and Generation stay callable:
// they read only counts. Closing an already-closed server returns
// ErrClosed.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	close(s.done)
	s.wg.Wait()
	// Sender barrier: every call that passed its closed re-check under
	// the shared lock has finished its send once this exclusive
	// acquisition succeeds; later senders observe closed. The drain
	// below is therefore exhaustive.
	s.sendMu.Lock()
	s.sendMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	// Publication fence: a Flush or Insert that entered s.mu before the
	// closed flag was set finishes (and may publish, linearized before
	// this Close); any later one sees closed under s.mu and refuses.
	s.mu.Lock()
	s.mu.Unlock() //nolint:staticcheck
	// Nothing searches a snapshot any more: the batcher has exited and
	// no publication follows the fence. The final snapshots are not
	// retired — acquire spins on a retired current snapshot, and Stats
	// and Len still pin them for their counts.
	for _, sh := range s.shards {
		if pg := sh.cur.Load().pg; pg != nil {
			pg.Close()
		}
	}
	// Fail whatever is left in the queue.
	for {
		select {
		case c := <-s.queue:
			c.reply <- reply{err: ErrClosed}
		default:
			return nil
		}
	}
}
