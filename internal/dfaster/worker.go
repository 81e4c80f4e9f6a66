// Package dfaster implements D-FASTER (paper §5): a distributed key-value
// cache-store built from FasterKV shards (package kv) wrapped with libDPR.
// Each worker owns a slice of the keyspace (virtual partitions, §5.3),
// serves remote clients over the batched TCP protocol (package wire), and
// supports co-located execution where application threads operate on the
// local shard at memory speed (§5.2, evaluated in §7.3).
package dfaster

import (
	"bufio"
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
// a FasterKV store, plus what is D-FASTER's own: partition ownership,
// refused-batch ordering, migration and the kv apply step.
type Worker struct {
	*serve.Worker
	cfg   WorkerConfig
	store *kv.Store
	meta  metadata.Service

	// ownedSnap is the ownership set, one bit per virtual partition. The batch
	// hot path loads it and tests a bit per operation; it is immutable once
	// published, and the (rare) membership operations — claim, renounce —
	// copy, edit and swap it under ownedMu (editOwnership).
	ownedMu   sync.Mutex
	ownedSnap atomic.Pointer[[]uint64]
	// movedSnap records, per partition, one plus the worker this one donated
	// it to (zero: not donated), so ownership misses from sessions still
	// routed here turn into ErrCodeMoved redirects (carrying the new owner)
	// instead of blind BadOwner retries. Published like ownedSnap; the hot
	// path reads it only on an ownership miss.
	movedSnap atomic.Pointer[[]uint64]

	// Refused-batch ordering (refusal.go): refusalOn counts live ledgers so
	// the hot path pays one atomic load when no refusals are outstanding.
	refusalOn atomic.Int32
	refusalMu sync.Mutex
	refusals  map[refusalKey]*refusalLedger

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
// worker rejoins the cluster.
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
	w := &Worker{
		Worker:   frame,
		cfg:      cfg,
		store:    store,
		meta:     meta,
		refusals: make(map[refusalKey]*refusalLedger),
	}
	owned, moved := make([]uint64, (cfg.Partitions+63)/64), make([]uint64, cfg.Partitions)
	w.ownedSnap.Store(&owned)
	w.movedSnap.Store(&moved)
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
// position in the cut the current world-line was recovered to, adopts it,
// and claims what the ownership stripes assign the worker now, renouncing any
// partition that has meanwhile moved elsewhere. The worker acks the
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
	w, err := AdoptWorker(cfg, store, meta)
	if err != nil {
		return nil, err
	}
	// The stripes, not a launch-time list, name what this seat serves now: a
	// completed migration may have moved partitions away (stealing them back
	// would strand the new owner's committed writes) or handed this seat more.
	// Partitions frozen mid-donation still stripe here: the recovery round
	// invalidated the migration record, so the restarted donor serves them.
	var parts []uint64
	for p := uint64(0); p < uint64(cfg.Partitions); p++ {
		if owner, err := meta.OwnerOf(p); err == nil && owner == cfg.ID {
			parts = append(parts, p)
		}
	}
	if err := w.ClaimPartitions(parts...); err != nil {
		w.Stop()
		return nil, err
	}
	// A migration target that won its record just before the recovery round
	// may still be flipping stripes: renounce what moved during the claim so
	// two workers never both serve a partition. (A stripe write landing after
	// this pass is the μs-scale gap DESIGN.md documents.)
	for _, p := range parts {
		if owner, err := meta.OwnerOf(p); err == nil && owner != cfg.ID {
			w.Renounce(p)
		}
	}
	return w, nil
}

// registerLogObs exports the store's log size and what its compactor does.
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
// corresponding FASTER session"). A connection that opens with
// FrameMigrateBegin is a migration stream, not a session.
func (w *Worker) openConn() serve.Conn {
	a := &kvApply{w: w, sess: w.store.NewSession(), pendingIdx: make(map[uint64]int)}
	return serve.Conn{
		Apply: a,
		Takeover: func(tag byte, payload []byte, fr *wire.FrameReader, bw *bufio.Writer) {
			if tag == wire.FrameMigrateBegin {
				w.receiveMigration(fr, bw, a.sess, payload)
			}
		},
		Close: a.sess.Close,
	}
}

// Lane is the frame's execution lane; each co-located caller holds one.
type Lane = serve.Lane

// DebugState adds the ownership count and the store's log to the frame's
// /debug/dpr snapshot.
func (w *Worker) DebugState() obs.DPRState {
	st := w.Worker.DebugState()
	st.OwnedPartitions = len(w.OwnedPartitions())
	ls := w.store.LogState()
	st.Log = &obs.LogState{
		Begin: ls.Begin, Head: ls.Head, ReadOnly: ls.ReadOnly, Tail: ls.Tail,
		Committed: uint64(ls.Committed), CompactTrigger: ls.CompactTrigger, Mapped: ls.Mapped,
	}
	return st
}

// Store exposes the underlying FasterKV (co-located applications and tests).
func (w *Worker) Store() *kv.Store { return w.store }

// hasBit reports whether bit p of the bitmap is set (false beyond its end).
func hasBit(bits []uint64, p uint64) bool {
	return p/64 < uint64(len(bits)) && bits[p/64]&(1<<(p%64)) != 0
}

// editOwnership publishes the ownership bitmap and the donated-partition
// table as fn leaves its private copies of them.
func (w *Worker) editOwnership(fn func(owned, moved []uint64)) {
	w.ownedMu.Lock()
	defer w.ownedMu.Unlock()
	owned, moved := slices.Clone(*w.ownedSnap.Load()), slices.Clone(*w.movedSnap.Load())
	fn(owned, moved)
	w.ownedSnap.Store(&owned)
	w.movedSnap.Store(&moved)
}

// MarkMoved records that partitions were donated to another worker, turning
// subsequent ownership misses into ErrCodeMoved redirects. It claims and
// renounces nothing locally: the migration coordinator also uses it when a
// handover completed on the target side but the donor missed the ack, so
// stale sessions still get redirected.
func (w *Worker) MarkMoved(ps []uint64, to core.WorkerID) {
	w.editOwnership(func(_, moved []uint64) {
		for _, p := range ps {
			if p < uint64(len(moved)) {
				moved[p] = uint64(to) + 1
			}
		}
	})
	w.dropRefusals(ps)
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
// partitions, both locally and in the metadata store.
func (w *Worker) ClaimPartitions(ps ...uint64) error {
	for _, p := range ps {
		if p >= uint64(w.cfg.Partitions) {
			return fmt.Errorf("dfaster: partition %d out of range (%d partitions)", p, w.cfg.Partitions)
		}
		if err := w.meta.SetOwner(p, w.cfg.ID); err != nil {
			return err
		}
	}
	w.editOwnership(func(owned, moved []uint64) {
		for _, p := range ps {
			owned[p/64] |= 1 << (p % 64)
			// A partition that migrated away and back is owned here again; stale
			// redirects would bounce sessions to a worker that no longer owns it.
			moved[p] = 0
		}
	})
	return nil
}

// Renounce drops local ownership of a partition immediately (the first step
// of an ownership transfer: the key is briefly unowned and clients retry,
// §5.3).
func (w *Worker) Renounce(p uint64) {
	w.editOwnership(func(owned, _ []uint64) {
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
// session and its pending-read index. Not safe for concurrent use.
type kvApply struct {
	w          *Worker
	sess       *kv.Session
	pendingIdx map[uint64]int // serial -> op index; has entries only while a batch with PENDING operations runs
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
func NewBatchScratch() *BatchScratch {
	return &BatchScratch{apply: kvApply{pendingIdx: make(map[uint64]int)}}
}

// ExecuteLocalScratch is the co-located execution path (§5.2): application
// threads on the same machine call straight into the worker's pipeline,
// skipping the network, with their own FasterKV session, scratch and lane.
// The reply aliases sc and is valid until the next execution with the same
// scratch.
func (w *Worker) ExecuteLocalScratch(sess *kv.Session, req *wire.BatchRequest, sc *BatchScratch, lane *Lane) (*wire.BatchReply, *wire.ErrorReply) {
	sc.apply.w, sc.apply.sess = w, sess
	return w.Execute(req, &sc.apply, &sc.frame, lane)
}

// refuse answers an ownership refusal; the frame stamps the world-line.
func (w *Worker) refuse(code uint8, newOwner core.WorkerID, format string, args ...any) *wire.ErrorReply {
	w.badOwnerC.Inc()
	return &wire.ErrorReply{Code: code, NewOwner: newOwner, Message: fmt.Sprintf(format, args...)}
}

// Apply implements serve.Applier: ownership validation and refused-batch
// ordering, which refuse the batch before anything is touched, then the kv
// operations with PENDING resolution.
//
//dpr:noalloc
func (a *kvApply) Apply(req *wire.BatchRequest, results []wire.OpResult, arena *[]byte) *wire.ErrorReply {
	w, sess := a.w, a.sess
	// Ownership validation against the local view (§5.3). The snapshot is
	// immutable, so no lock is taken.
	owned := *w.ownedSnap.Load()
	for i := range req.Ops {
		part := PartitionOf(req.Ops[i].Key, w.cfg.Partitions)
		if !hasBit(owned, part) {
			// A donated partition redirects with the new owner, so the
			// session re-routes on its next transmit without a metadata
			// round trip; anything else is a plain ownership miss.
			if to := (*w.movedSnap.Load())[part]; to != 0 {
				newOwner := core.WorkerID(to - 1)
				return w.refuse(wire.ErrCodeMoved, newOwner, "partition %d moved to worker %d", part, newOwner) //dpr:ignore hotpath-noalloc cold reject path: ownership misses only happen around migrations
			}
			// Record the refusal so later pipelined batches from this
			// session cannot overtake this one if the partition becomes
			// servable again (refusal.go).
			w.recordRefusal(req.Header.SessionID, req.Header.SeqStart, req.Ops)
			return w.refuse(wire.ErrCodeBadOwner, 0, "key %q not owned by worker %d", req.Ops[i].Key, w.cfg.ID) //dpr:ignore hotpath-noalloc cold reject path: ownership misses only happen around migrations
		}
	}
	// Session replay ordering: while earlier-refused sequence numbers are
	// pending for any of this batch's (session, partition) pairs, only the
	// minimum refused sequence may execute (refusal.go). One atomic load in
	// steady state.
	if w.refusalOn.Load() != 0 && !w.refusalAdmit(req.Header.SessionID, req.Header.SeqStart, req.Ops) {
		return w.refuse(wire.ErrCodeBadOwner, 0, "held for session replay ordering") //dpr:ignore hotpath-noalloc cold reject path: only while refused batches are being re-driven
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
			if status == kv.StatusPending {
				a.pendingIdx[uint64(i)] = i
			}
			results[i] = resolved(status, v, val)
		case wire.OpRMW:
			var delta uint64
			if len(op.Value) >= 8 {
				delta = binary.LittleEndian.Uint64(op.Value)
			}
			status, v, newVal := sess.RMW(op.Key, delta, uint64(i))
			switch status {
			case kv.StatusOK:
				start := len(*arena)
				*arena = binary.LittleEndian.AppendUint64(*arena, newVal)
				results[i] = wire.OpResult{Status: wire.StatusOK, Version: v,
					Value: (*arena)[start:len(*arena):len(*arena)]}
			case kv.StatusPending:
				results[i] = wire.OpResult{}
				a.pendingIdx[uint64(i)] = i
			default:
				results[i] = wire.OpResult{Status: wire.StatusError, Version: v}
			}
		default:
			results[i] = wire.OpResult{Status: wire.StatusError}
		}
	}
	// Resolve PENDING operations before replying: the batch is the unit of
	// response on the wire. (Relaxed DPR still applies within the session:
	// the client may have many batches outstanding.)
	if len(a.pendingIdx) > 0 {
		for _, c := range sess.CompletePending(true) {
			if i, ok := a.pendingIdx[c.Serial]; ok {
				results[i] = resolved(c.Status, c.Version, c.Value)
			}
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

// resolved maps a kv read outcome onto the wire; a PENDING read is left
// zero until CompletePending delivers it.
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
