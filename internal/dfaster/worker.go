// Package dfaster implements D-FASTER (paper §5): a distributed key-value
// cache-store built from FasterKV shards (package kv) wrapped with libDPR.
// Each worker owns a slice of the keyspace (virtual partitions, §5.3),
// serves remote clients over the batched TCP protocol (package wire), and
// supports co-located execution where application threads operate on the
// local shard at memory speed (§5.2, evaluated in §7.3).
package dfaster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/serve"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// PartitionOf maps a key to its virtual partition (hash partitioning, the
// default scheme of §5.3).
func PartitionOf(key []byte, partitions int) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	// Mix the high bits down so partition counts that are powers of two do
	// not alias the bucket index computation.
	h ^= h >> 33
	return h % uint64(partitions)
}

// WorkerConfig parameterizes a D-FASTER worker.
type WorkerConfig struct {
	ID core.WorkerID
	// ListenAddr is the TCP address to serve on ("" disables networking —
	// co-located-only worker).
	ListenAddr string
	// CheckpointInterval is the heartbeat behind libDPR's commit pump (paper:
	// 100ms); the pump, not this timer, starts commits when batches execute.
	// <= 0 makes a manual-commit worker (see libdpr.WorkerConfig).
	CheckpointInterval time.Duration
	// Partitions is the cluster-wide virtual partition count.
	Partitions int
	// Device is the durable storage backend.
	Device storage.Device
	// KV configures the underlying FasterKV instance.
	KV kv.Config
	// Obs selects the metrics registry (nil: obs.Default).
	Obs *obs.Registry
}

// Pinned here because kv cannot import libdpr (libdpr's tests import kv): a
// kv.Store that lost OnPersist must fail the build.
var _ libdpr.StateObject = (*kv.Store)(nil)

// Worker is one D-FASTER shard server: the DPR worker frame (listener,
// admission, dependency recording, replies, instruments — package serve) over
// a FasterKV store, plus what is D-FASTER's own: partition ownership and the
// kv apply step.
type Worker struct {
	*serve.Worker
	cfg   WorkerConfig
	store *kv.Store
	meta  metadata.Service

	// ownedSnap is the ownership set, one bit per virtual partition. The batch
	// hot path loads it and tests a bit per operation; it is immutable once
	// published, and the (rare) edits — claim, renounce — copy, edit and swap
	// it under ownedMu (editOwnership).
	ownedMu   sync.Mutex
	ownedSnap atomic.Pointer[[]uint64]

	badOwnerC *obs.Counter
}

// NewWorker builds and starts a worker (store, libDPR wrapper, listener).
func NewWorker(cfg WorkerConfig, meta metadata.Service) (*Worker, error) {
	if cfg.Partitions <= 0 {
		return nil, errors.New("dfaster: Partitions must be positive")
	}
	return AdoptWorker(cfg, kv.NewStore(cfg.Device, cfg.KV), meta)
}

// AdoptWorker builds a worker around an existing FasterKV instance — the
// restart path, where the store was reconstructed with kv.Recover before the
// worker rejoins the cluster. The worker owns what the ownership table
// assigns it before its listener accepts (a fresh store's worker: nothing,
// until it claims), so a session that metadata routes here is never refused
// for a partition the table names: a refused batch could otherwise be
// overtaken by a later batch of its session, admitted once the claim landed.
func AdoptWorker(cfg WorkerConfig, store *kv.Store, meta metadata.Service) (*Worker, error) {
	if cfg.Partitions <= 0 {
		return nil, errors.New("dfaster: Partitions must be positive")
	}
	frame, err := serve.NewWorker("dfaster", libdpr.WorkerConfig{
		ID:                 cfg.ID,
		Addr:               cfg.ListenAddr,
		CheckpointInterval: cfg.CheckpointInterval,
		Obs:                cfg.Obs,
	}, store, meta)
	if err != nil {
		store.Close()
		return nil, err
	}
	w := &Worker{Worker: frame, cfg: cfg, store: store, meta: meta}
	owned := make([]uint64, (cfg.Partitions+63)/64)
	for p := uint64(0); p < uint64(cfg.Partitions); p++ {
		if owner, err := meta.OwnerOf(p); err == nil && owner == cfg.ID {
			owned[p/64] |= 1 << (p % 64)
		}
	}
	w.ownedSnap.Store(&owned)
	reg, lbls := frame.Instruments()
	w.badOwnerC = reg.Counter("dpr_server_batches_not_owned_total",
		"Batches refused because a key's partition is not owned here.", lbls...)
	// Every store epoch drain: checkpoint boundaries, rollback fences,
	// eviction, compaction.
	store.OnDrain(reg.Histogram("dpr_store_epoch_drain_seconds",
		"Latency of store epoch drains (checkpoint boundaries, rollback fences, eviction).", lbls...).Observe)
	reg.CounterFunc("dpr_store_epoch_drain_yields_total",
		"Store epoch drains that outlasted their spin and yielded the processor: on more than one, sections that block or are preempted.",
		store.DrainYields, lbls...)
	// Log garbage is whatever the committed cut has passed: the store compacts
	// up to this worker's own position in it.
	store.CommittedBy(frame.DPR().CommittedVersion)
	w.registerLogObs(reg, lbls)
	frame.Start(w.openConn)
	return w, nil
}

// Restart brings a failed worker back (paper §4.1), the one restart every
// deployment uses: it recovers the store from cfg.Device at the worker's
// position in the cut the current world-line was recovered to and adopts it,
// serving what the ownership table assigns the worker. The worker acks the
// world-line it starts on as it registers. A device that cannot be read is an
// error, so the caller may retry; nothing is left running then. Call it once
// the recovery round for the worker's failure has begun: before that, the
// current world-line's cut belongs to an older round.
func Restart(cfg WorkerConfig, meta metadata.Service) (*Worker, error) {
	_, _, wl, err := meta.State()
	if err != nil {
		return nil, err
	}
	cut, err := meta.RecoveredCut(wl)
	if err != nil {
		return nil, fmt.Errorf("dfaster: restart worker %d on world-line %d: %w", cfg.ID, wl, err)
	}
	store, err := kv.Recover(cfg.Device, cfg.KV, cut.Get(cfg.ID))
	if err != nil {
		return nil, fmt.Errorf("dfaster: restart worker %d at %d: %w", cfg.ID, cut.Get(cfg.ID), err)
	}
	return AdoptWorker(cfg, store, meta)
}

// registerLogObs exports the store's log size, its index's occupancy and what
// its compactor does.
func (w *Worker) registerLogObs(reg *obs.Registry, lbls []obs.Label) {
	with := func(k, v string) []obs.Label { return append(lbls[:len(lbls):len(lbls)], obs.L(k, v)) }
	const logHelp = "HybridLog bytes in memory: resident is head to tail, mutable the part still updated in place, mapped the slab bytes backed by memory."
	reg.GaugeFunc("dpr_store_log_bytes", logHelp, func() float64 {
		ls := w.store.LogState()
		return float64(ls.Tail - ls.Head)
	}, with("region", "resident")...)
	reg.GaugeFunc("dpr_store_log_bytes", logHelp, func() float64 {
		ls := w.store.LogState()
		return float64(ls.Tail - ls.ReadOnly)
	}, with("region", "mutable")...)
	reg.GaugeFunc("dpr_store_log_bytes", logHelp, func() float64 {
		return float64(w.store.LogState().Mapped)
	}, with("region", "mapped")...)
	reg.GaugeFunc("dpr_store_index_chains", "Hash index entries in use: one chain each.", func() float64 {
		chains, _ := w.store.IndexOccupancy()
		return float64(chains)
	}, lbls...)
	reg.GaugeFunc("dpr_store_index_full_lines",
		"Hash index buckets (one cache line each) with all eight entries in use: a new key tag there shares another tag's chain.",
		func() float64 {
			_, full := w.store.IndexOccupancy()
			return float64(full)
		}, lbls...)
	const bytesHelp = "Log bytes compaction moved the begin address over (scanned), re-appended at the tail (copied), and dropped (reclaimed)."
	scanned := reg.Counter("dpr_store_compaction_bytes_total", bytesHelp, with("kind", "scanned")...)
	copied := reg.Counter("dpr_store_compaction_bytes_total", bytesHelp, with("kind", "copied")...)
	reclaimed := reg.Counter("dpr_store_compaction_bytes_total", bytesHelp, with("kind", "reclaimed")...)
	held := reg.Histogram("dpr_store_compaction_step_seconds",
		"Time each compaction step held the store's state-machine mutex.", lbls...)
	w.store.OnCompactStep(func(st kv.CompactStep) {
		scanned.Add(uint64(st.Scanned))
		copied.Add(uint64(st.Copied))
		reclaimed.Add(uint64(st.Scanned - st.Copied))
		held.Observe(st.Held)
	})
}

// openConn builds one connection's backend state: its own FasterKV session
// (§5.2: "when a session operates on a worker, the worker creates a
// corresponding FASTER session").
func (w *Worker) openConn() serve.Conn {
	a := &kvApply{w: w, sess: w.store.NewSession()}
	return serve.Conn{Apply: a, Close: a.sess.Close}
}

// Lane is the frame's execution lane; each co-located caller holds one.
type Lane = serve.Lane

// NewSessionLane returns a lane for the co-located caller that executes its
// batches on sess: the lane holds sess's epoch slot from a batch's admission
// to its release, and the kv operations inside enter nothing more.
func (w *Worker) NewSessionLane(sess *kv.Session) *Lane {
	return w.NewLaneOn(w.store.Epochs(), sess.Slot())
}

// DebugState adds the ownership count and the store's log and index to the
// frame's /debug/dpr snapshot.
func (w *Worker) DebugState() obs.DPRState {
	st := w.Worker.DebugState()
	st.OwnedPartitions = len(w.OwnedPartitions())
	ls := w.store.LogState()
	chains, full := w.store.IndexOccupancy()
	st.Log = &obs.LogState{
		Begin: ls.Begin, Head: ls.Head, ReadOnly: ls.ReadOnly, Tail: ls.Tail,
		Committed: uint64(ls.Committed), CompactTrigger: ls.CompactTrigger, Mapped: ls.Mapped,
		IndexChains: chains, IndexFullLines: full,
	}
	return st
}

// Store exposes the underlying FasterKV (co-located applications and tests).
func (w *Worker) Store() *kv.Store { return w.store }

// hasBit reports whether bit p of the bitmap is set (false beyond its end).
func hasBit(bits []uint64, p uint64) bool {
	return p/64 < uint64(len(bits)) && bits[p/64]&(1<<(p%64)) != 0
}

// editOwnership publishes the ownership bitmap as fn leaves its private copy
// of it.
func (w *Worker) editOwnership(fn func(owned []uint64)) {
	w.ownedMu.Lock()
	defer w.ownedMu.Unlock()
	owned := slices.Clone(*w.ownedSnap.Load())
	fn(owned)
	w.ownedSnap.Store(&owned)
}

// OwnedPartitions lists the partitions this worker currently owns.
func (w *Worker) OwnedPartitions() []uint64 {
	var ps []uint64
	for i, word := range *w.ownedSnap.Load() {
		for ; word != 0; word &= word - 1 {
			ps = append(ps, uint64(i*64+bits.TrailingZeros64(word)))
		}
	}
	return ps
}

// ClaimPartitions registers this worker as the owner of the given virtual
// partitions: locally first, then in the metadata store, so a session that
// metadata routes here finds them owned (see AdoptWorker).
func (w *Worker) ClaimPartitions(ps ...uint64) error {
	for _, p := range ps {
		if p >= uint64(w.cfg.Partitions) {
			return fmt.Errorf("dfaster: partition %d out of range (%d partitions)", p, w.cfg.Partitions)
		}
	}
	w.editOwnership(func(owned []uint64) {
		for _, p := range ps {
			owned[p/64] |= 1 << (p % 64)
		}
	})
	for _, p := range ps {
		if err := w.meta.SetOwner(p, w.cfg.ID); err != nil {
			return err
		}
	}
	return nil
}

// Renounce drops local ownership of a partition immediately: its batches are
// refused from then on, and the clients re-drive them through metadata.
func (w *Worker) Renounce(p uint64) {
	w.editOwnership(func(owned []uint64) {
		if p/64 < uint64(len(owned)) {
			owned[p/64] &^= 1 << (p % 64)
		}
	})
}

// Owns reports whether the worker currently owns partition p.
func (w *Worker) Owns(p uint64) bool { return hasBit(*w.ownedSnap.Load(), p) }

// Stop shuts the worker down: the frame (listener, live connections and their
// goroutines, the libDPR loops), then the store.
func (w *Worker) Stop() {
	w.Worker.Stop()
	w.store.Close()
}

// kvApply is the D-FASTER backend of the frame's pipeline: one caller's kv
// session. Not safe for concurrent use.
type kvApply struct {
	w    *Worker
	sess *kv.Session
	// parts holds the partitions of the batch's first len(parts) keys, as
	// the caller that routed them computed them.
	parts []uint64
	// lane is the co-located caller's, which holds sess's epoch slot for the
	// batch (NewSessionLane): the batch moves off it before it waits on the
	// device. Nil on a connection's.
	lane *Lane
}

// BatchScratch is what a co-located caller holds between batches: the frame's
// scratch and the kv apply state, bound to the caller's session on each
// ExecuteLocalScratch. Not safe for concurrent use; a reply aliases it, so
// consume (encode or copy) the reply before the next batch reuses the scratch.
type BatchScratch struct {
	frame serve.Scratch
	apply kvApply
}

// NewBatchScratch returns an empty scratch; it grows to fit the largest
// batch it serves and stays there.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// ExecuteLocalScratch is the co-located execution path (§5.2): application
// threads on the same machine call straight into the worker's pipeline,
// skipping the network, with their own FasterKV session, scratch and lane.
// The reply aliases sc and is valid until the next execution with the same
// scratch.
func (w *Worker) ExecuteLocalScratch(sess *kv.Session, req *wire.BatchRequest, sc *BatchScratch, lane *Lane) (*wire.BatchReply, *wire.ErrorReply) {
	sc.apply.w, sc.apply.sess, sc.apply.lane = w, sess, lane
	return w.Execute(req, &sc.apply, &sc.frame, lane)
}

// ownershipMiss refuses a batch whose op i is in a partition not owned here;
// the frame stamps the world-line.
func (w *Worker) ownershipMiss(req *wire.BatchRequest, i int) *wire.ErrorReply {
	w.badOwnerC.Inc()
	return &wire.ErrorReply{Code: wire.ErrCodeBadOwner,
		Message: fmt.Sprintf("key %q not owned by worker %d", req.Ops[i].Key, w.cfg.ID)}
}

// Apply implements serve.Applier: the in-memory pass, then the operations that
// went PENDING, settled before the reply (the batch is the wire's unit). A
// co-located batch waits for them off its kv session's slot, which the
// store's drains would otherwise wait on too (Lane.Park). The device path
// allocates in kv, so it is outside the zero-allocation pass.
func (a *kvApply) Apply(req *wire.BatchRequest, results []wire.OpResult, arena *[]byte) *wire.ErrorReply {
	if refusal := a.applyInMemory(req, results, arena); refusal != nil {
		return refusal
	}
	if a.lane != nil && a.sess.Pending() {
		a.lane.Park()
	}
	for _, c := range a.sess.CompletePending(true) {
		if c.Serial < uint64(len(results)) { // the serial is the op's index
			results[c.Serial] = resolved(c.Status, c.Version, c.Value)
		}
	}
	return nil
}

// applyInMemory is ownership validation, which refuses the batch before
// anything is touched, then the kv operations. An operation whose record lies
// on the device goes PENDING and is left zero.
//
//dpr:noalloc
func (a *kvApply) applyInMemory(req *wire.BatchRequest, results []wire.OpResult, arena *[]byte) *wire.ErrorReply {
	w, sess := a.w, a.sess
	// Ownership validation against the local view (§5.3). The snapshot is
	// immutable, so no lock is taken.
	owned := *w.ownedSnap.Load()
	for i := range req.Ops {
		var p uint64
		if i < len(a.parts) {
			p = a.parts[i]
		} else {
			p = PartitionOf(req.Ops[i].Key, w.cfg.Partitions)
		}
		if !hasBit(owned, p) {
			return w.ownershipMiss(req, i)
		}
	}

	for i := range req.Ops {
		op := &req.Ops[i]
		switch op.Kind {
		case wire.OpUpsert:
			v, err := sess.Upsert(op.Key, op.Value)
			results[i] = written(v, err)
		case wire.OpDelete:
			v, err := sess.Delete(op.Key)
			results[i] = written(v, err)
		case wire.OpRead:
			val, status, v := sess.ReadAppend(arena, op.Key, uint64(i))
			results[i] = resolved(status, v, val)
		case wire.OpRMW:
			var delta uint64
			if len(op.Value) >= 8 {
				delta = binary.LittleEndian.Uint64(op.Value)
			}
			status, v, newVal := sess.RMW(op.Key, delta, uint64(i))
			var val []byte
			if status == kv.StatusOK {
				start := len(*arena)
				*arena = binary.LittleEndian.AppendUint64(*arena, newVal)
				val = (*arena)[start:len(*arena):len(*arena)]
			}
			results[i] = resolved(status, v, val)
		default:
			results[i] = wire.OpResult{Status: wire.StatusError}
		}
	}
	return nil
}

// written is the result of an upsert or delete.
func written(v core.Version, err error) wire.OpResult {
	if err != nil {
		return wire.OpResult{Status: wire.StatusError}
	}
	return wire.OpResult{Status: wire.StatusOK, Version: v}
}

// resolved maps a kv read or RMW outcome onto the wire; a PENDING operation
// is left zero until CompletePending delivers it.
func resolved(status kv.Status, v core.Version, val []byte) wire.OpResult {
	switch status {
	case kv.StatusOK:
		return wire.OpResult{Status: wire.StatusOK, Version: v, Value: val}
	case kv.StatusNotFound:
		return wire.OpResult{Status: wire.StatusNotFound, Version: v}
	case kv.StatusPending:
		return wire.OpResult{}
	default:
		return wire.OpResult{Status: wire.StatusError, Version: v}
	}
}
