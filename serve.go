package hdidx

import (
	"time"

	"hdidx/internal/obs"
	"hdidx/internal/serve"
)

// serveLatency is the internal latency digest the facade converts to
// the exported LatencyStats.
type serveLatency = obs.LatencySummary

// This file surfaces the concurrent query-serving core
// (internal/serve) through the facade: a Server holds an index that
// answers k-NN and range queries from many goroutines, lock-free on
// the read path, while ingesting new points concurrently. See
// DESIGN.md §10 for the epoch/snapshot-swap architecture.

// ErrOverloaded reports that the server's admission queue was full;
// back off and retry. Test with errors.Is.
var ErrOverloaded = serve.ErrOverloaded

// ErrServerClosed reports an operation on a closed Server. Test with
// errors.Is.
var ErrServerClosed = serve.ErrClosed

// ErrDeadline reports that a k-NN query waited on the admission queue
// past ServeConfig.QueueTimeout and was never searched; back off and
// retry. Test with errors.Is.
var ErrDeadline = serve.ErrDeadline

// ServeConfig parameterizes NewServer. The zero value of every field
// selects a sensible default.
type ServeConfig struct {
	// Shards splits the server into that many independently published
	// shards (default 1, max 64). Ingested points deal round-robin
	// across shards; when a shard fills, only that shard re-flattens
	// and rewrites its snapshot, so the steady-state publication cost
	// is O(N/Shards) instead of O(N). A k-NN query runs one
	// best-first search across all shards — results are bit-identical
	// to an unsharded server over the same points. With SnapshotPath
	// set, each shard persists its own snapshot file beside a
	// checksummed manifest; the shard count of a durable path cannot
	// change across restarts.
	Shards int
	// FlattenEvery is the number of ingested points between snapshot
	// publications (default 1024, counted per shard). Inserted points
	// become visible to queries at the next publication; Flush forces
	// one for every shard with pending points.
	FlattenEvery int
	// QueueDepth bounds the k-NN admission queue (default 256); a full
	// queue rejects with ErrOverloaded.
	QueueDepth int
	// BatchSize is the maximum number of queued queries answered
	// against one pinned snapshot set (default 16, capped at 64).
	// Each query is still searched on its own, so its page-access
	// statistics do not depend on what else shares the batch.
	BatchSize int
	// QueueTimeout bounds how long a k-NN query may wait on the
	// admission queue before the batcher reaches it; stale queries
	// fail with ErrDeadline instead of occupying batch slots. 0 (the
	// default) disables the deadline.
	QueueTimeout time.Duration
	// SnapshotPath, when non-empty, makes every snapshot publication
	// durable: the published tree is written to this file atomically,
	// and a restarted server recovers the persisted points from it.
	// See Index.Save / Open for the file format. Empty (the default)
	// serves purely in memory.
	SnapshotPath string
	// Backend selects how durably published generations are served
	// when SnapshotPath is set: BackendMmap reopens each published
	// file and serves queries zero-copy from its read-only mapping
	// (unmapped when the generation's last reader drains); BackendAuto
	// (the default) does so where the platform supports it and serves
	// the resident tree otherwise; BackendReadAt forces the resident
	// tree. Ignored without a SnapshotPath.
	Backend Backend
}

// Server is a concurrent serving handle over an index: any number of
// goroutines may query and insert at once. Readers run against an
// immutable snapshot and never block on writers; inserted points
// become visible in batches when a fresh snapshot is published.
type Server struct {
	srv *serve.Server
}

// NewServer starts a server over points. The index page geometry is
// configured with the same options as Build (WithPageBytes,
// WithUtilization). Close the server when done to stop its batcher
// goroutine.
//
// points may be empty when ServeConfig.SnapshotPath names an existing
// snapshot file — the restarted server recovers its points (and its
// dimensionality) from the file.
func NewServer(points [][]float64, scfg ServeConfig, opts ...Option) (*Server, error) {
	dim := 0
	if len(points) > 0 || scfg.SnapshotPath == "" {
		var err error
		if dim, err = validatePoints(points); err != nil {
			return nil, err
		}
	}
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(points, serve.Config{
		Geometry:     c.geometry(dim),
		Shards:       scfg.Shards,
		FlattenEvery: scfg.FlattenEvery,
		QueueDepth:   scfg.QueueDepth,
		BatchSize:    scfg.BatchSize,
		QueueTimeout: scfg.QueueTimeout,
		SnapshotPath: scfg.SnapshotPath,
		Backend:      scfg.Backend,
	})
	if err != nil {
		return nil, err
	}
	return &Server{srv: srv}, nil
}

// KNN returns the k nearest neighbors of q on the current snapshot,
// closest first, with the search's page-access statistics. The
// neighbors are private copies. A full admission queue returns
// ErrOverloaded; a query with a non-finite coordinate is an error.
func (s *Server) KNN(q []float64, k int) ([][]float64, QueryStats, error) {
	res, err := s.srv.KNN(q, k)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return res.Neighbors, QueryStats{
		LeafAccesses: res.LeafAccesses,
		DirAccesses:  res.DirAccesses,
		Radius:       res.Radius,
	}, nil
}

// RangeCount returns the number of points within radius of center on
// the current snapshot. A non-finite center or a NaN radius is an
// error.
func (s *Server) RangeCount(center []float64, radius float64) (int, error) {
	n, _, err := s.srv.RangeCount(center, radius)
	return n, err
}

// Insert ingests one point (copied). It becomes visible to queries at
// the next snapshot publication. A point with a non-finite coordinate
// is rejected.
func (s *Server) Insert(p []float64) error { return s.srv.Insert(p) }

// Flush publishes any ingested-but-unpublished points immediately. It
// returns ErrServerClosed on a closed server, and surfaces durable-
// publication failures when ServeConfig.SnapshotPath is set.
func (s *Server) Flush() error { return s.srv.Flush() }

// Len returns the number of points in the current snapshot.
func (s *Server) Len() int { return s.srv.Len() }

// Dim returns the dimensionality of the indexed points.
func (s *Server) Dim() int { return s.srv.Dim() }

// Close stops the server; queued and future calls fail with
// ErrServerClosed.
func (s *Server) Close() error { return s.srv.Close() }

// LatencyStats summarizes observed per-query latencies (queue wait
// plus search time).
type LatencyStats struct {
	// Count is the number of queries observed.
	Count int64
	// Mean is the exact mean latency; P50/P95/P99 are reservoir
	// quantile estimates; Max is the exact maximum.
	Mean, P50, P95, P99, Max time.Duration
}

// ShardServeStats is the per-shard breakdown within ServerStats.
type ShardServeStats struct {
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

// ServerStats is a point-in-time digest of a Server.
type ServerStats struct {
	// Points is the size of the current snapshots (ingested but
	// unpublished points excluded).
	Points int
	// Generation counts publication events since start; each event
	// republishes only its dirty shards.
	Generation int64
	// Publications counts snapshots published across all shards; with
	// one shard it equals Generation.
	Publications int64
	// RetiredSnapshots counts superseded snapshots whose readers have
	// all drained.
	RetiredSnapshots int64
	// Overloads counts queries rejected with ErrOverloaded.
	Overloads int64
	// Deadlines counts queries that aged past ServeConfig.QueueTimeout
	// on the admission queue and failed with ErrDeadline.
	Deadlines int64
	// FlattenTime is the cumulative time spent re-flattening shards at
	// publication, and BytesWritten the cumulative durable bytes
	// (snapshot files plus manifests); their per-generation rates are
	// the publication cost ServeConfig.Shards divides.
	FlattenTime time.Duration
	// BytesWritten is the cumulative durable bytes written.
	BytesWritten int64
	// Mapped reports whether every current snapshot is served
	// zero-copy from a read-only file mapping (ServeConfig.Backend).
	Mapped bool
	// Shards holds the per-shard breakdown, in shard order.
	Shards []ShardServeStats
	// KNN and Range are the per-query latency digests.
	KNN, Range LatencyStats
}

// Stats digests the server's counters and latency sketches.
func (s *Server) Stats() ServerStats {
	st := s.srv.Stats()
	conv := func(l serveLatency) LatencyStats {
		return LatencyStats{Count: l.Count, Mean: l.Mean, P50: l.P50, P95: l.P95, P99: l.P99, Max: l.Max}
	}
	shards := make([]ShardServeStats, len(st.Shards))
	for i, sh := range st.Shards {
		shards[i] = ShardServeStats{
			Points:       sh.Points,
			Generation:   sh.Generation,
			Publications: sh.Publications,
			BytesWritten: sh.BytesWritten,
			Mapped:       sh.Mapped,
		}
	}
	return ServerStats{
		Points:           st.Points,
		Generation:       st.Generation,
		Publications:     st.Publications,
		RetiredSnapshots: st.RetiredSnapshots,
		Overloads:        st.Overloads,
		Deadlines:        st.Deadlines,
		FlattenTime:      st.FlattenTime,
		BytesWritten:     st.BytesWritten,
		Mapped:           st.Mapped,
		Shards:           shards,
		KNN:              conv(st.KNN),
		Range:            conv(st.Range),
	}
}
