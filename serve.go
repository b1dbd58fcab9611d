package hdidx

import (
	"errors"

	"hdidx/internal/obs"
	"hdidx/internal/serve"
)

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

// ErrDeadline is never returned: no call has a queue deadline. It
// stays only because the benchmark module (bench/) names it.
var ErrDeadline = errors.New("hdidx: queued past deadline")

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
	// set, each shard persists its own snapshot files beside a
	// checksummed manifest; the shard count of a durable path cannot
	// change across restarts.
	Shards int
	// FlattenEvery is the number of ingested points between snapshot
	// publications (default 1024, counted per shard). Inserted points
	// become visible to queries at the next publication; Flush forces
	// one for every shard with pending points.
	FlattenEvery int
	// SnapshotPath, when non-empty, makes every snapshot publication
	// durable, at every shard count. The path names a checksummed
	// manifest: each publication writes its shards' trees to new
	// snapshot files beside it (<path>.s<shard>.g<generation>.hdsn),
	// and the manifest's atomic rename commits them. A restarted server
	// recovers the committed points, and their dimensionality, from
	// the manifest. Every written file is reopened — which verifies it
	// — and queries are served from the reopened tree: zero-copy from
	// its read-only mapping where the platform supports mmap (unmapped
	// when the generation's last reader drains), read from the file
	// elsewhere. A written file that fails verification is an error
	// from the Insert or Flush that published it, is removed, and no
	// manifest names it.
	// A shard file is in the format of Index.Save, and Open reads it.
	// A snapshot file at the path itself is refused. Empty (the
	// default) serves purely in memory.
	SnapshotPath string
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
// manifest — the restarted server recovers its points (and its
// dimensionality) from it.
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
		SnapshotPath: scfg.SnapshotPath,
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
	return s.srv.RangeCount(center, radius)
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
// ErrServerClosed. It releases the server's snapshot files (their
// mappings); Len and Stats stay callable.
func (s *Server) Close() error { return s.srv.Close() }

// LatencyStats summarizes observed per-query latencies (queue wait
// plus search time).
type LatencyStats = obs.LatencySummary

// ShardServeStats is the per-shard breakdown within ServerStats.
type ShardServeStats = serve.ShardStats

// ServerStats is a point-in-time digest of a Server. Its Deadlines
// field is always 0.
type ServerStats = serve.Stats

// Stats digests the server's counters and latency sketches.
func (s *Server) Stats() ServerStats { return s.srv.Stats() }
