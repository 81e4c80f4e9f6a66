// Package dpr is the public API of this repository: a Go implementation of
// Distributed Prefix Recovery (DPR) from "Asynchronous Prefix Recoverability
// for Fast Distributed Stores" (SIGMOD 2021), together with the D-FASTER
// distributed key-value cache-store built on it.
//
// The facade assembles an embedded cluster — FasterKV shards wrapped with
// libDPR, a metadata/DPR-finder service, and a cluster manager — inside one
// process, with workers serving real TCP loopback traffic (or running
// co-located). Sessions issue reads and writes that complete at memory
// speed; commits arrive asynchronously as prefix guarantees; failures roll
// the system back to a consistent DPR cut and surface the exact surviving
// prefix to each session.
//
// Quick start:
//
//	cluster, _ := dpr.NewCluster(dpr.ClusterConfig{Shards: 2})
//	defer cluster.Close()
//	s, _ := cluster.NewSession(dpr.SessionConfig{})
//	defer s.Close()
//	s.Put([]byte("hello"), []byte("world"))
//	s.WaitAllCommitted(time.Second)  // durable across all shards
//	val, found, _ := s.Get([]byte("hello"))
//
// The deeper layers are importable for advanced use: internal/core (the DPR
// protocol model), internal/kv (the FasterKV store), internal/libdpr (add
// DPR to any StateObject), internal/dredis (wrap an unmodified store).
package dpr

import (
	"errors"
	"fmt"
	"time"

	"dpr/internal/cluster"
	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// Re-exported protocol types.
type (
	// WorkerID identifies a shard.
	WorkerID = core.WorkerID
	// Version numbers a shard's commit epochs.
	Version = core.Version
	// WorldLine identifies a failure-free trajectory of system state.
	WorldLine = core.WorldLine
	// Token is one committed version of one shard.
	Token = core.Token
	// Cut is a DPR-cut: per-shard recoverable version positions.
	Cut = core.Cut
	// SurvivalError reports the exact prefix of a session that survived a
	// failure.
	SurvivalError = core.SurvivalError
	// AbandonedError names a write WaitAllCommitted cannot call durable.
	AbandonedError = core.AbandonedError
)

// ErrRolledBack matches errors caused by failure rollbacks
// (errors.Is / errors.As with *SurvivalError).
var ErrRolledBack = core.ErrRolledBack

// StorageKind selects the simulated durable-storage backend (§7.1).
type StorageKind uint8

const (
	// StorageNull persists instantly but runs the full checkpoint path.
	StorageNull StorageKind = iota
	// StorageLocalSSD models a direct-attached SSD.
	StorageLocalSSD
	// StorageCloudSSD models replicated premium cloud storage (2-3x slower
	// checkpoints).
	StorageCloudSSD
)

func (k StorageKind) newDevice() storage.Device {
	switch k {
	case StorageLocalSSD:
		return storage.NewLocalSSD()
	case StorageCloudSSD:
		return storage.NewCloudSSD()
	default:
		return storage.NewNull()
	}
}

// FinderKind selects the DPR cut-finding algorithm (§3.3-3.4).
type FinderKind = metadata.FinderKind

// Finder kinds.
const (
	FinderExact       = metadata.FinderExact
	FinderApproximate = metadata.FinderApproximate
	FinderHybrid      = metadata.FinderHybrid
)

// ClusterConfig parameterizes an embedded cluster.
type ClusterConfig struct {
	// Shards is the number of D-FASTER workers (default 1).
	Shards int
	// Partitions is the number of virtual partitions (default 64·Shards).
	Partitions int
	// CheckpointInterval is the heartbeat behind each shard's commit pump,
	// which commits as batches execute (default 50ms).
	CheckpointInterval time.Duration
	// Storage selects the durable backend (default StorageNull).
	Storage StorageKind
	// Finder selects the cut algorithm (default approximate, as in §7.1).
	Finder FinderKind
	// DisableNetwork makes the cluster co-located-only: shards are not
	// served over TCP loopback (the default), and sessions must be opened
	// with a LocalShard.
	DisableNetwork bool
	// MemoryBudgetPerShard caps each shard's in-memory log; 0 = unbounded.
	MemoryBudgetPerShard int64
}

// Cluster is an embedded DPR cluster.
type Cluster struct {
	cfg     ClusterConfig
	meta    *metadata.Store
	mgr     *cluster.Manager
	workers []*dfaster.Worker
}

// NewCluster assembles and starts a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 64 * cfg.Shards
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 50 * time.Millisecond
	}
	c := &Cluster{
		cfg:  cfg,
		meta: metadata.NewStore(metadata.Config{Finder: cfg.Finder}),
	}
	c.mgr = cluster.NewManager(c.meta)
	for i := 0; i < cfg.Shards; i++ {
		dev := cfg.Storage.newDevice()
		addr := "127.0.0.1:0"
		if cfg.DisableNetwork {
			addr = ""
		}
		w, err := dfaster.NewWorker(dfaster.WorkerConfig{
			ID:                 core.WorkerID(i + 1),
			ListenAddr:         addr,
			CheckpointInterval: cfg.CheckpointInterval,
			Partitions:         cfg.Partitions,
			Device:             dev,
			KV: kv.Config{
				// 512 KiB of buckets, 65 536 chains: under the 1 MiB the
				// index took when a bucket was one untagged head.
				BucketCount:  1 << 13,
				MemoryBudget: cfg.MemoryBudgetPerShard,
			},
		}, c.meta)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	for p := 0; p < cfg.Partitions; p++ {
		if err := c.workers[p%cfg.Shards].ClaimPartitions(uint64(p)); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close stops all workers.
func (c *Cluster) Close() {
	for _, w := range c.workers {
		w.Stop()
	}
	c.workers = nil
}

// Shards returns the number of workers.
func (c *Cluster) Shards() int { return len(c.workers) }

// Worker returns the i'th worker (0-based) for co-located sessions and
// advanced inspection.
func (c *Cluster) Worker(i int) *dfaster.Worker { return c.workers[i] }

// Metadata exposes the metadata/DPR-finder service.
func (c *Cluster) Metadata() *metadata.Store { return c.meta }

// CurrentCut returns the latest DPR cut together with the world-line it was
// observed on. Versions restart across world-lines, so a cut compared or
// cached without its world-line can silently cross a recovery boundary.
func (c *Cluster) CurrentCut() (Cut, WorldLine) {
	cut, _, wl, _ := c.meta.State()
	return cut.Clone(), wl // the finder's published cut is shared; the caller's copy is its own
}

// InjectFailure simulates a worker failure (as §7.4 does): the cluster
// manager assigns a new world-line, and returns once every shard has rolled
// itself back to the last DPR cut, or at the round's ack bound if one cannot.
// Returns the new world-line and the cut.
func (c *Cluster) InjectFailure() (WorldLine, Cut, error) {
	return c.mgr.OnFailure()
}

// SessionConfig parameterizes a client session.
type SessionConfig struct {
	// BatchSize is b, operations per network batch (default 16).
	BatchSize int
	// Window is w, maximum outstanding operations (default 16·BatchSize).
	Window int
	// Strict selects strict DPR instead of relaxed (§5.4).
	Strict bool
}

// Session is a client session against the cluster. Sessions are sequential
// logical threads: issue operations from one goroutine.
type Session struct {
	client *dfaster.Client
}

// NewSession opens a session.
func (c *Cluster) NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Window <= 0 {
		cfg.Window = 16 * cfg.BatchSize
	}
	if c.cfg.DisableNetwork {
		return nil, errors.New("dpr: cluster has no network; use NewColocatedSession")
	}
	cl, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions: c.cfg.Partitions,
		BatchSize:  cfg.BatchSize,
		Window:     cfg.Window,
		Relaxed:    !cfg.Strict,
	}, c.meta)
	if err != nil {
		return nil, err
	}
	return &Session{client: cl}, nil
}

// NewColocatedSession opens a session co-located with shard i.
func (c *Cluster) NewColocatedSession(i int, cfg SessionConfig) (*Session, error) {
	if i < 0 || i >= len(c.workers) {
		return nil, fmt.Errorf("dpr: no shard %d", i)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Window <= 0 {
		cfg.Window = 16 * cfg.BatchSize
	}
	cl, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions:  c.cfg.Partitions,
		BatchSize:   cfg.BatchSize,
		Window:      cfg.Window,
		Relaxed:     !cfg.Strict,
		LocalWorker: c.workers[i],
	}, c.meta)
	if err != nil {
		return nil, err
	}
	return &Session{client: cl}, nil
}

// Close releases the session.
func (s *Session) Close() { s.client.Close() }

// Client exposes the underlying windowed-batching client for async use.
func (s *Session) Client() *dfaster.Client { return s.client }

// Put enqueues a write; it completes (becomes visible cluster-wide) when the
// batch round-trips, and commits asynchronously. Use WaitAllCommitted or
// Committed to observe durability.
func (s *Session) Put(key, value []byte) error {
	return s.client.Upsert(key, value, nil)
}

// Delete enqueues a deletion.
func (s *Session) Delete(key []byte) error {
	return s.client.Delete(key, nil)
}

// Add enqueues an atomic read-modify-write addition on a uint64 counter.
func (s *Session) Add(key []byte, delta uint64) error {
	return s.client.RMW(key, delta, nil)
}

// FetchAdd atomically adds delta to the uint64 counter at key and returns
// the new value (synchronous: flushes and waits for the RMW to complete).
func (s *Session) FetchAdd(key []byte, delta uint64) (uint64, error) {
	type res struct {
		status byte
		n      uint64
	}
	ch := make(chan res, 1)
	if err := s.client.RMW(key, delta, func(r wire.OpResult) {
		// Parse inside the callback: r.Value is only valid for its duration.
		out := res{status: r.Status}
		if len(r.Value) >= 8 {
			for i := 0; i < 8; i++ {
				out.n |= uint64(r.Value[i]) << (8 * i)
			}
		} else if out.status == wire.StatusOK {
			out.status = wire.StatusError
		}
		ch <- out
	}); err != nil {
		return 0, err
	}
	if err := s.client.Flush(); err != nil {
		return 0, err
	}
	select {
	case r := <-ch:
		if r.status != wire.StatusOK {
			if err := s.client.Err(); err != nil {
				return 0, err
			}
			return 0, errors.New("dpr: fetch-add failed")
		}
		return r.n, nil
	case <-time.After(30 * time.Second):
		return 0, errors.New("dpr: fetch-add timed out")
	}
}

// Get flushes outstanding operations and reads key synchronously.
func (s *Session) Get(key []byte) (value []byte, found bool, err error) {
	type res struct {
		status byte
		value  []byte
	}
	ch := make(chan res, 1)
	if err := s.client.Read(key, func(r wire.OpResult) {
		// Copy inside the callback: r.Value is only valid for its duration.
		var v []byte
		if r.Value != nil {
			v = append([]byte(nil), r.Value...)
		}
		ch <- res{status: r.Status, value: v}
	}); err != nil {
		return nil, false, err
	}
	if err := s.client.Flush(); err != nil {
		return nil, false, err
	}
	select {
	case r := <-ch:
		switch r.status {
		case wire.StatusOK:
			return r.value, true, nil
		case wire.StatusNotFound:
			return nil, false, nil
		default:
			return nil, false, errors.New("dpr: read failed")
		}
	case <-time.After(30 * time.Second):
		return nil, false, errors.New("dpr: read timed out")
	}
}

// Flush sends any buffered partial batches.
func (s *Session) Flush() error { return s.client.Flush() }

// Drain flushes and waits for every outstanding operation to complete.
func (s *Session) Drain() error { return s.client.Drain() }

// Committed returns the committed prefix point (sequence number) and the
// exception list (relaxed DPR). The list is shared with later calls until it
// changes: it must not be modified.
func (s *Session) Committed() (uint64, []uint64) { return s.client.Committed() }

// WaitAllCommitted blocks until everything issued so far is durable. A write
// that never reached a shard (Put does not say) fails it, once: *AbandonedError.
func (s *Session) WaitAllCommitted(timeout time.Duration) error {
	return s.client.WaitCommitAll(timeout)
}

// Err returns the pending *SurvivalError after a failure, or nil. Like the
// operations, it is called from the goroutine that issues them.
func (s *Session) Err() error { return s.client.Err() }

// Acknowledge consumes a pending SurvivalError; the session then continues
// on the new world-line.
func (s *Session) Acknowledge() *SurvivalError { return s.client.Acknowledge() }
