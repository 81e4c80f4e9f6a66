// Package dfaster implements D-FASTER (paper §5): a distributed key-value
// cache-store built from FasterKV shards (package kv) wrapped with libDPR.
// Each worker owns a slice of the keyspace (virtual partitions, §5.3),
// serves remote clients over the batched TCP protocol (package wire), and
// supports co-located execution where application threads operate on the
// local shard at memory speed (§5.2, evaluated in §7.3).
package dfaster

import (
	"bufio"
	"errors"
	"fmt"
	"runtime"
	"strconv"
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
	// Obs selects the metrics registry (nil: obs.Default); TraceSize the
	// lifecycle trace ring capacity (<= 0: obs.DefaultTraceSize).
	Obs       *obs.Registry
	TraceSize int
}

// Worker is one D-FASTER shard server.
// Pinned here because kv cannot import libdpr (libdpr's tests import kv): a
// kv.Store that lost OnPersist must fail the build.
var _ libdpr.StateObject = (*kv.Store)(nil)

type Worker struct {
	cfg   WorkerConfig
	store *kv.Store
	dpr   *libdpr.Worker
	meta  metadata.Service

	// owned is the authoritative ownership set, mutated only under ownedMu
	// by the (rare) membership operations: claim, renounce. The batch hot
	// path never takes the mutex; it reads ownedSnap, an immutable copy
	// republished after every mutation.
	ownedMu   sync.Mutex
	owned     map[uint64]struct{}
	ownedSnap atomic.Pointer[map[uint64]struct{}]
	// moved records partitions this worker donated and who owns them now, so
	// ownership misses from sessions still routed here turn into
	// ErrCodeMoved redirects (carrying the new owner) instead of blind
	// BadOwner retries. Mutated under ownedMu alongside owned; the hot path
	// reads movedSnap, and only on an ownership miss.
	moved     map[uint64]core.WorkerID
	movedSnap atomic.Pointer[map[uint64]core.WorkerID]

	// Refused-batch ordering (refusal.go): refusalOn counts live ledgers so
	// the hot path pays one atomic load when no refusals are outstanding.
	refusalOn atomic.Int32
	refusalMu sync.Mutex
	refusals  map[refusalKey]*refusalLedger

	// srv is the serving frame: listener, frame loop, cut-advance pushes.
	srv *serve.Server

	// Serving-layer instruments (libDPR protocol instruments live on w.dpr).
	batchesC  *obs.Counter
	opsC      *obs.Counter
	badOwnerC *obs.Counter
	batchLatH *obs.Histogram
	batchOpsH *obs.Histogram
	// Per-lane instruments: connections are assigned lane ids round-robin
	// (laneSeq) and bump their lane's counters on the hot path — one atomic
	// add per batch, no shared-line contention across lanes.
	laneStats []laneInstruments
	laneSeq   atomic.Uint64
	// drainH observes the latency of every store epoch drain (checkpoint
	// boundaries, rollback fences, eviction, compaction).
	drainH *obs.Histogram
}

// laneInstruments is the per-lane counter pair.
type laneInstruments struct {
	batches *obs.Counter
	ops     *obs.Counter
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
	srv, err := serve.Listen(cfg.ListenAddr)
	if err != nil {
		store.Close()
		return nil, err
	}
	w := &Worker{
		cfg:      cfg,
		store:    store,
		meta:     meta,
		owned:    make(map[uint64]struct{}),
		moved:    make(map[uint64]core.WorkerID),
		refusals: make(map[refusalKey]*refusalLedger),
		srv:      srv,
	}
	w.publishOwnedLocked()
	w.publishMovedLocked()
	dw, err := libdpr.NewWorker(libdpr.WorkerConfig{
		ID:                 cfg.ID,
		Addr:               srv.Addr(),
		CheckpointInterval: cfg.CheckpointInterval,
		// Pre-encode the piggybacked cut once per refresh so replies splice
		// bytes instead of re-serializing the map per batch.
		EncodeCut: func(c core.Cut) []byte { return wire.AppendCut(nil, c) },
		Obs:       cfg.Obs,
		TraceSize: cfg.TraceSize,
	}, store, meta)
	if err != nil {
		srv.Stop()
		store.Close()
		return nil, err
	}
	w.dpr = dw
	dw.OnCutAdvance(srv.PushCutAdvance)
	w.registerObs()
	srv.Start(w.openConn)
	return w, nil
}

// openConn builds one connection's serving state: its own FasterKV session
// (§5.2: "when a session operates on a worker, the worker creates a
// corresponding FASTER session"), scratch and execution lane, so batches
// execute allocation-free. A connection that opens with FrameMigrateBegin is
// a migration stream, not a session.
func (w *Worker) openConn() serve.Handler {
	sess := w.store.NewSession()
	sc := NewBatchScratch()
	lane := w.NewLane()
	return serve.Handler{
		Execute: func(req *wire.BatchRequest) (*wire.BatchReply, *wire.ErrorReply) {
			return w.executeBatch(sess, req, sc, lane)
		},
		Takeover: func(tag byte, payload []byte, fr *wire.FrameReader, bw *bufio.Writer) {
			if tag == wire.FrameMigrateBegin {
				w.receiveMigration(fr, bw, sess, payload)
			}
		},
		Close: func() {
			sess.Close()
			lane.Close()
		},
	}
}

// registerObs registers the serving-layer instruments. Get-or-create
// semantics make this idempotent across worker restarts with the same id.
func (w *Worker) registerObs() {
	reg := w.cfg.Obs
	if reg == nil {
		reg = obs.Default
	}
	lbls := []obs.Label{
		obs.L("worker", strconv.FormatUint(uint64(w.cfg.ID), 10)),
		obs.L("store", "dfaster"),
	}
	w.batchesC = reg.Counter("dpr_server_batches_total",
		"Batches executed by the serving layer.", lbls...)
	w.opsC = reg.Counter("dpr_server_ops_total",
		"Operations executed by the serving layer.", lbls...)
	w.badOwnerC = reg.Counter("dpr_server_batches_not_owned_total",
		"Batches refused because a key's partition is not owned here.", lbls...)
	w.batchLatH = reg.Histogram("dpr_server_batch_latency_seconds",
		"Server-side batch execution latency (admission through reply assembly).", lbls...)
	w.batchOpsH = reg.ValueHistogram("dpr_server_batch_ops",
		"Operations per executed batch.", lbls...)
	w.drainH = reg.Histogram("dpr_store_epoch_drain_seconds",
		"Latency of store epoch drains (checkpoint boundaries, rollback fences, eviction).", lbls...)
	w.store.OnDrain(w.drainH.Observe)
	w.laneStats = make([]laneInstruments, defaultLanes())
	for i := range w.laneStats {
		laneLbls := append(append([]obs.Label(nil), lbls...),
			obs.L("lane", strconv.Itoa(i)))
		w.laneStats[i] = laneInstruments{
			batches: reg.Counter("dpr_server_lane_batches_total",
				"Batches executed, attributed to serving lanes.", laneLbls...),
			ops: reg.Counter("dpr_server_lane_ops_total",
				"Operations executed, attributed to serving lanes.", laneLbls...),
		}
	}
	reg.GaugeFunc("dpr_server_lane_imbalance",
		"Max over mean of per-lane batch counts (1.0 = perfectly balanced).",
		func() float64 {
			var max, sum uint64
			for i := range w.laneStats {
				n := w.laneStats[i].batches.Value()
				sum += n
				if n > max {
					max = n
				}
			}
			if sum == 0 {
				return 1
			}
			return float64(max) * float64(len(w.laneStats)) / float64(sum)
		}, lbls...)
}

// defaultLanes sizes the number of serving lanes instruments are attributed
// to (per-lane batch/op counters and the imbalance gauge, without
// per-connection label cardinality) to the machine, like the kv index's
// default shard count.
func defaultLanes() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// Lane couples a libDPR execution lane (the epoch slot a batch pins against
// the rollback fence) with the serving-layer instruments it reports into.
// Each connection — and each co-located caller — owns one; a Lane must not
// be used by two batches concurrently.
type Lane struct {
	exec    *libdpr.ExecLane
	id      int
	batches *obs.Counter
	ops     *obs.Counter
}

// NewLane registers an execution lane with the next lane id (round-robin).
// Close it when the connection or co-located caller is done.
func (w *Worker) NewLane() *Lane {
	id := int(w.laneSeq.Add(1)-1) % len(w.laneStats)
	return &Lane{
		exec:    w.dpr.NewLane(),
		id:      id,
		batches: w.laneStats[id].batches,
		ops:     w.laneStats[id].ops,
	}
}

// Close unregisters the lane from rollback-fence accounting.
func (l *Lane) Close() { l.exec.Close() }

// DebugState assembles the /debug/dpr snapshot, layering serving-layer
// counters onto the libDPR protocol view.
func (w *Worker) DebugState() obs.DPRState {
	st := w.dpr.DebugState("dfaster")
	st.OwnedPartitions = len(*w.ownedSnap.Load())
	st.Batches = w.batchesC.Value()
	st.Ops = w.opsC.Value()
	return st
}

// ID implements cluster.RollbackTarget.
func (w *Worker) ID() core.WorkerID { return w.cfg.ID }

// Addr returns the worker's listen address ("" if co-located only).
func (w *Worker) Addr() string { return w.srv.Addr() }

// Store exposes the underlying FasterKV (co-located applications and tests).
func (w *Worker) Store() *kv.Store { return w.store }

// DPR exposes the libDPR worker state.
func (w *Worker) DPR() *libdpr.Worker { return w.dpr }

// Rollback implements cluster.RollbackTarget.
func (w *Worker) Rollback(wl core.WorldLine, cut core.Cut) error {
	return w.dpr.Rollback(wl, cut)
}

// publishOwnedLocked republishes the ownership snapshot; ownedMu must be
// held. The snapshot is immutable after publication.
func (w *Worker) publishOwnedLocked() {
	snap := make(map[uint64]struct{}, len(w.owned))
	for p := range w.owned {
		snap[p] = struct{}{}
	}
	w.ownedSnap.Store(&snap)
}

// publishMovedLocked republishes the donated-partition snapshot; ownedMu
// must be held.
func (w *Worker) publishMovedLocked() {
	snap := make(map[uint64]core.WorkerID, len(w.moved))
	for p, o := range w.moved {
		snap[p] = o
	}
	w.movedSnap.Store(&snap)
}

// markMoved records that partitions were donated to another worker, turning
// subsequent ownership misses into ErrCodeMoved redirects.
func (w *Worker) markMoved(ps []uint64, to core.WorkerID) {
	w.ownedMu.Lock()
	for _, p := range ps {
		w.moved[p] = to
	}
	w.publishMovedLocked()
	w.ownedMu.Unlock()
	w.dropRefusals(ps)
}

// MarkMoved records that partitions now live on another worker without
// claiming or renouncing anything locally: the migration coordinator uses it
// when a handover completed on the target side but the donor missed the ack,
// so stale sessions still get redirected.
func (w *Worker) MarkMoved(ps []uint64, to core.WorkerID) { w.markMoved(ps, to) }

// OwnedPartitions lists the partitions this worker currently owns.
func (w *Worker) OwnedPartitions() []uint64 {
	owned := *w.ownedSnap.Load()
	ps := make([]uint64, 0, len(owned))
	for p := range owned {
		ps = append(ps, p)
	}
	return ps
}

// ClaimPartitions registers this worker as the owner of the given virtual
// partitions, both locally and in the metadata store.
func (w *Worker) ClaimPartitions(ps ...uint64) error {
	for _, p := range ps {
		if err := w.meta.SetOwner(p, w.cfg.ID); err != nil {
			return err
		}
	}
	w.ownedMu.Lock()
	for _, p := range ps {
		w.owned[p] = struct{}{}
		// A partition that migrated away and back is owned here again; stale
		// redirects would bounce sessions to a worker that no longer owns it.
		delete(w.moved, p)
	}
	w.publishOwnedLocked()
	w.publishMovedLocked()
	w.ownedMu.Unlock()
	return nil
}

// Renounce drops local ownership of a partition immediately (the first step
// of an ownership transfer: the key is briefly unowned and clients retry,
// §5.3).
func (w *Worker) Renounce(p uint64) {
	w.ownedMu.Lock()
	delete(w.owned, p)
	w.publishOwnedLocked()
	w.ownedMu.Unlock()
}

// Owns reports whether the worker currently owns partition p.
func (w *Worker) Owns(p uint64) bool {
	_, ok := (*w.ownedSnap.Load())[p]
	return ok
}

// Stop shuts the worker down: the serving frame (listener, live connections
// and their goroutines), then the libDPR loop, then the store.
func (w *Worker) Stop() {
	w.srv.Stop()
	w.dpr.Stop()
	w.store.Close()
}

// BatchScratch holds the per-session reusable state of the batch execution
// pipeline: result and version slices, the pending-op index, the dependency
// dedup set, the value arena that read results are copied into, and the
// reply shell. Reusing it makes executeBatch allocation-free in steady
// state. A BatchScratch is not safe for concurrent use, and the reply
// returned from an execution aliases it: consume (encode or copy) the reply
// before the next batch reuses the scratch.
type BatchScratch struct {
	results    []wire.OpResult
	versions   []core.Version
	pendingIdx map[uint64]int // serial -> op index
	seen       map[core.Version]struct{}
	arena      []byte
	reply      wire.BatchReply
}

// NewBatchScratch returns an empty scratch; it grows to fit the largest
// batch it serves and stays there.
func NewBatchScratch() *BatchScratch {
	return &BatchScratch{
		pendingIdx: make(map[uint64]int),
		seen:       make(map[core.Version]struct{}, 2),
	}
}

func growResults(s []wire.OpResult, n int) []wire.OpResult {
	if cap(s) < n {
		return make([]wire.OpResult, n)
	}
	return s[:n]
}

func growVersions(s []core.Version, n int) []core.Version {
	if cap(s) < n {
		return make([]core.Version, n)
	}
	return s[:n]
}

// executeBatch runs the full server-side pipeline for one batch: libDPR
// admission, ownership validation, execution (with PENDING resolution),
// dependency recording, and reply assembly. Shared by the network path and
// the co-located path. The returned reply (and the values inside it) aliases
// sc; it is valid until the next executeBatch call with the same scratch.
//
//dpr:noalloc
func (w *Worker) executeBatch(sess *kv.Session, req *wire.BatchRequest, sc *BatchScratch, lane *Lane) (*wire.BatchReply, *wire.ErrorReply) {
	start := time.Now()
	if _, err := w.dpr.AdmitBatchGuarded(req.Header, lane.exec); err != nil {
		code := wire.ErrCodeRejected
		if errors.Is(err, libdpr.ErrStaleBatch) {
			code = wire.ErrCodeStale
		}
		return nil, &wire.ErrorReply{ //dpr:ignore hotpath-noalloc cold reject path: admission failures are rare and already off the steady-state path
			Code:      code,
			WorldLine: w.dpr.WorldLine(),
			Message:   err.Error(),
		}
	}
	executed := false
	defer func() { w.dpr.ReleaseBatch(req.Header, lane.exec, executed) }()
	// Ownership validation against the local view (§5.3). The snapshot is
	// immutable, so no lock is taken.
	owned := *w.ownedSnap.Load()
	for i := range req.Ops {
		part := PartitionOf(req.Ops[i].Key, w.cfg.Partitions)
		if _, ok := owned[part]; !ok {
			w.badOwnerC.Inc()
			// A donated partition redirects with the new owner, so the
			// session re-routes on its next transmit without a metadata
			// round trip; anything else is a plain ownership miss.
			if newOwner, donated := (*w.movedSnap.Load())[part]; donated {
				return nil, &wire.ErrorReply{ //dpr:ignore hotpath-noalloc cold reject path: ownership misses only happen around migrations
					Code:      wire.ErrCodeMoved,
					WorldLine: w.dpr.WorldLine(),
					NewOwner:  newOwner,
					Message:   fmt.Sprintf("partition %d moved to worker %d", part, newOwner), //dpr:ignore hotpath-noalloc cold reject path: formatting only on ownership misses
				}
			}
			// Record the refusal so later pipelined batches from this
			// session cannot overtake this one if the partition becomes
			// servable again (refusal.go).
			w.recordRefusal(req.Header.SessionID, req.Header.SeqStart, req.Ops)
			return nil, &wire.ErrorReply{ //dpr:ignore hotpath-noalloc cold reject path: ownership misses only happen around migrations
				Code:      wire.ErrCodeBadOwner,
				WorldLine: w.dpr.WorldLine(),
				Message:   fmt.Sprintf("key %q not owned by worker %d", req.Ops[i].Key, w.cfg.ID), //dpr:ignore hotpath-noalloc cold reject path: formatting only on ownership misses
			}
		}
	}
	// Session replay ordering: while earlier-refused sequence numbers are
	// pending for any of this batch's (session, partition) pairs, only the
	// minimum refused sequence may execute (refusal.go). One atomic load in
	// steady state.
	if w.refusalOn.Load() != 0 && !w.refusalAdmit(req.Header.SessionID, req.Header.SeqStart, req.Ops) {
		w.badOwnerC.Inc()
		return nil, &wire.ErrorReply{ //dpr:ignore hotpath-noalloc cold reject path: only while refused batches are being re-driven
			Code:      wire.ErrCodeBadOwner,
			WorldLine: w.dpr.WorldLine(),
			Message:   "held for session replay ordering",
		}
	}
	executed = true

	sc.results = growResults(sc.results, len(req.Ops)) //dpr:ignore hotpath-noalloc grows once to the batch high-water mark; steady state reuses the scratch
	sc.arena = sc.arena[:0]
	clear(sc.pendingIdx)
	results := sc.results
	for i := range req.Ops {
		op := &req.Ops[i]
		switch op.Kind {
		case wire.OpUpsert:
			v, err := sess.Upsert(op.Key, op.Value)
			if err != nil {
				results[i] = wire.OpResult{Status: wire.StatusError}
			} else {
				results[i] = wire.OpResult{Status: wire.StatusOK, Version: v}
			}
		case wire.OpDelete:
			v, err := sess.Delete(op.Key)
			if err != nil {
				results[i] = wire.OpResult{Status: wire.StatusError}
			} else {
				results[i] = wire.OpResult{Status: wire.StatusOK, Version: v}
			}
		case wire.OpRead:
			val, status, v := sess.ReadAppend(&sc.arena, op.Key, uint64(i))
			switch status {
			case kv.StatusOK:
				results[i] = wire.OpResult{Status: wire.StatusOK, Version: v, Value: val}
			case kv.StatusNotFound:
				results[i] = wire.OpResult{Status: wire.StatusNotFound, Version: v}
			case kv.StatusPending:
				results[i] = wire.OpResult{}
				sc.pendingIdx[uint64(i)] = i
			default:
				results[i] = wire.OpResult{Status: wire.StatusError, Version: v}
			}
		case wire.OpRMW:
			var delta uint64
			if len(op.Value) >= 8 {
				delta = uint64(op.Value[0]) | uint64(op.Value[1])<<8 | uint64(op.Value[2])<<16 |
					uint64(op.Value[3])<<24 | uint64(op.Value[4])<<32 | uint64(op.Value[5])<<40 |
					uint64(op.Value[6])<<48 | uint64(op.Value[7])<<56
			}
			status, v, newVal := sess.RMW(op.Key, delta, uint64(i))
			switch status {
			case kv.StatusOK:
				start := len(sc.arena)
				sc.arena = append(sc.arena,
					byte(newVal), byte(newVal>>8), byte(newVal>>16), byte(newVal>>24),
					byte(newVal>>32), byte(newVal>>40), byte(newVal>>48), byte(newVal>>56))
				results[i] = wire.OpResult{Status: wire.StatusOK, Version: v,
					Value: sc.arena[start:len(sc.arena):len(sc.arena)]}
			case kv.StatusPending:
				results[i] = wire.OpResult{}
				sc.pendingIdx[uint64(i)] = i
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
	if len(sc.pendingIdx) > 0 {
		for _, c := range sess.CompletePending(true) {
			i, ok := sc.pendingIdx[c.Serial]
			if !ok {
				continue
			}
			switch c.Status {
			case kv.StatusOK:
				results[i] = wire.OpResult{Status: wire.StatusOK, Version: c.Version, Value: c.Value}
			case kv.StatusNotFound:
				results[i] = wire.OpResult{Status: wire.StatusNotFound, Version: c.Version}
			default:
				results[i] = wire.OpResult{Status: wire.StatusError, Version: c.Version}
			}
		}
	}
	// Record the batch's cross-shard dependency under every version its
	// operations executed in (§3.1: dependencies are tracked per version).
	sc.versions = growVersions(sc.versions, len(results)) //dpr:ignore hotpath-noalloc grows once to the batch high-water mark; steady state reuses the scratch
	clear(sc.seen)
	for i := range results {
		v := results[i].Version
		sc.versions[i] = v
		if v != 0 {
			if _, dup := sc.seen[v]; !dup {
				sc.seen[v] = struct{}{}
				w.dpr.RecordDependency(v, req.Header.Dep)
			}
		}
	}
	dprReply := w.dpr.Reply(sc.versions)
	sc.reply = wire.BatchReply{
		WorldLine: dprReply.WorldLine,
		Results:   results,
		Cut:       dprReply.Cut,
		// The pre-encoded cut is spliced verbatim by AppendBatchReply,
		// skipping per-batch map serialization.
		EncodedCut: w.dpr.EncodedCut(),
	}
	w.batchesC.Inc()
	w.opsC.Add(uint64(len(req.Ops)))
	lane.batches.Inc()
	lane.ops.Add(uint64(len(req.Ops)))
	w.batchOpsH.ObserveValue(uint64(len(req.Ops)))
	w.batchLatH.Observe(time.Since(start))
	return &sc.reply, nil
}

// ExecuteLocal is the co-located execution path (§5.2): application threads
// on the same machine call straight into the worker, skipping the network.
// The caller supplies its own FasterKV session. For an allocation-free
// steady state, hold a BatchScratch and a Lane and use ExecuteLocalScratch
// instead.
func (w *Worker) ExecuteLocal(sess *kv.Session, req *wire.BatchRequest) (*wire.BatchReply, *wire.ErrorReply) {
	lane := w.NewLane()
	defer lane.Close()
	return w.executeBatch(sess, req, NewBatchScratch(), lane)
}

// ExecuteLocalScratch is ExecuteLocal with a caller-held scratch and lane.
// The reply aliases sc and is valid until the next execution with the same
// scratch.
func (w *Worker) ExecuteLocalScratch(sess *kv.Session, req *wire.BatchRequest, sc *BatchScratch, lane *Lane) (*wire.BatchReply, *wire.ErrorReply) {
	return w.executeBatch(sess, req, sc, lane)
}
