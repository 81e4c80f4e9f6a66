// Package dredis implements D-Redis (paper §6): an *unmodified* Redis-like
// store (package redisclone) given DPR guarantees by wrapping it with libDPR.
// The wrapper holds one latch: exclusive around BGSAVE-based commits, shared
// around batch execution, so every operation in a batch lands in a single
// version. Restore restarts the underlying instance from the snapshot
// matching the requested version — exactly the integration strategy the
// paper describes for stock Redis.
package dredis

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/core"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/redisclone"
	"dpr/internal/serve"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// stateObject adapts an unmodified redisclone.Server to libdpr.StateObject.
type stateObject struct {
	device storage.Device
	prefix string
	aof    redisclone.AOFMode

	// latch: exclusive for BGSAVE (commit) and restart (restore), shared
	// for batch execution (§6: "There is one latch associated with the
	// wrapper"). savesMu nests under it (commit/restore record the save id
	// while latched), never the reverse.
	//
	//dpr:lockorder dredis.stateObject.latch < dredis.stateObject.savesMu
	latch sync.RWMutex
	srv   *redisclone.Server

	current   atomic.Uint64 // version new batches execute in
	persisted atomic.Uint64

	// persistObs is the registered persist observer (OnPersist): watchSaves
	// fires it when the persisted version advances, so the libDPR worker
	// reports in LASTSAVE-poll latency.
	persistObs atomic.Pointer[func(core.Version)]

	// saves maps version -> redisclone save id, durably mirrored so Restore
	// can find the right snapshot after a process restart.
	savesMu sync.Mutex
	saves   map[core.Version]uint64
	// watch queue: commits whose BGSAVE has not become durable yet.
	watching []versionSave

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type versionSave struct {
	version core.Version
	save    uint64
}

func newStateObject(device storage.Device, prefix string, aof redisclone.AOFMode) *stateObject {
	so := &stateObject{
		device: device,
		prefix: prefix,
		aof:    aof,
		srv:    redisclone.New(redisclone.Config{Device: device, Prefix: prefix, AOF: aof}),
		saves:  map[core.Version]uint64{0: 0},
		stop:   make(chan struct{}),
	}
	so.current.Store(1)
	so.wg.Add(1)
	go so.watchSaves()
	return so
}

// CurrentVersion implements libdpr.StateObject.
func (so *stateObject) CurrentVersion() core.Version { return core.Version(so.current.Load()) }

// PersistedVersion implements core.StateObject.
func (so *stateObject) PersistedVersion() core.Version { return core.Version(so.persisted.Load()) }

// BeginCommit implements core.StateObject: under the exclusive latch, issue
// BGSAVE (which captures a consistent snapshot immediately and persists in
// the background) and advance the version.
func (so *stateObject) BeginCommit(v core.Version) error {
	so.latch.Lock()
	defer so.latch.Unlock()
	cur := core.Version(so.current.Load())
	if cur > v {
		return nil // a later commit already covers v
	}
	id, err := so.srv.BgSave()
	if err != nil {
		return err
	}
	so.savesMu.Lock()
	so.saves[v] = id
	// Versions skipped by a fast-forward share the same snapshot.
	for missing := cur; missing < v; missing++ {
		if _, ok := so.saves[missing]; !ok {
			so.saves[missing] = id
		}
	}
	so.watching = append(so.watching, versionSave{version: v, save: id})
	so.savesMu.Unlock()
	so.current.Store(uint64(v + 1))
	return nil
}

// watchSaves polls LASTSAVE (as the paper's wrapper does) to learn when
// snapshots become durable, then advances the persisted version.
func (so *stateObject) watchSaves() {
	defer so.wg.Done()
	t := time.NewTicker(500 * time.Microsecond)
	defer t.Stop()
	for {
		select {
		case <-so.stop:
			return
		case <-t.C:
			so.latch.RLock()
			last := so.srv.LastSave()
			so.latch.RUnlock()
			var advanced core.Version
			so.savesMu.Lock()
			for len(so.watching) > 0 && so.watching[0].save <= last {
				v := so.watching[0].version
				if uint64(v) > so.persisted.Load() {
					so.persisted.Store(uint64(v))
					advanced = v
				}
				so.watching = so.watching[1:]
			}
			so.savesMu.Unlock()
			// Fire outside savesMu: the observer only does a non-blocking
			// channel send, but the lock has no business being held for it.
			if advanced != 0 {
				if f := so.persistObs.Load(); f != nil {
					(*f)(advanced)
				}
			}
		}
	}
}

// OnPersist implements libdpr.StateObject: fn is invoked from the save
// watcher whenever the persisted version advances. At most one observer; nil
// unregisters.
func (so *stateObject) OnPersist(fn func(core.Version)) {
	if fn == nil {
		so.persistObs.Store(nil)
		return
	}
	so.persistObs.Store(&fn)
}

// Restore implements core.StateObject by restarting the wrapped instance
// from the snapshot of version v.
func (so *stateObject) Restore(v core.Version) error {
	so.latch.Lock()
	defer so.latch.Unlock()
	so.savesMu.Lock()
	save, ok := so.saves[v]
	if !ok {
		// Find the newest snapshot at or below v.
		var best core.Version
		for sv, id := range so.saves {
			if sv <= v && sv >= best {
				best, save, ok = sv, id, true
			}
		}
	}
	// Drop bookkeeping beyond v.
	for sv := range so.saves {
		if sv > v {
			delete(so.saves, sv)
		}
	}
	so.watching = nil
	so.savesMu.Unlock()
	if !ok {
		return fmt.Errorf("dredis: no snapshot at or below version %d", v)
	}
	so.srv.Stop()
	srv, err := redisclone.Restart(redisclone.Config{Device: so.device, Prefix: so.prefix, AOF: so.aof}, save)
	if err != nil {
		return err
	}
	so.srv = srv
	cur := core.Version(so.current.Load())
	so.current.Store(uint64(cur + 1))
	if so.persisted.Load() > uint64(v) {
		so.persisted.Store(uint64(v))
	}
	return nil
}

func (so *stateObject) close() {
	so.stopOnce.Do(func() { close(so.stop) })
	so.wg.Wait()
	so.latch.Lock()
	so.srv.Stop()
	so.latch.Unlock()
}

var _ libdpr.StateObject = (*stateObject)(nil)

// WorkerConfig parameterizes a D-Redis worker (proxy + instance).
type WorkerConfig struct {
	ID         core.WorkerID
	ListenAddr string
	// CheckpointInterval is the heartbeat behind libDPR's commit pump, which
	// starts a snapshot when batches execute and follows it with a pause
	// three times as long as it took, so snapshots never run back to back
	// (see libdpr.WorkerConfig).
	CheckpointInterval time.Duration
	Device             storage.Device
	// AOF lets Figure 19 run the same worker in synchronous-recoverability
	// mode (AOFAlways) or eventual mode; leave AOFOff for DPR.
	AOF redisclone.AOFMode
	// Obs selects the metrics registry (nil: obs.Default); TraceSize the
	// lifecycle trace ring capacity (<= 0: obs.DefaultTraceSize).
	Obs       *obs.Registry
	TraceSize int
}

// Worker is one D-Redis shard: an unmodified redisclone instance fronted by
// the libDPR proxy.
type Worker struct {
	cfg  WorkerConfig
	so   *stateObject
	dpr  *libdpr.Worker
	meta metadata.Service

	// srv is the serving frame: listener, frame loop, cut-advance pushes.
	srv *serve.Server

	// Serving-layer instruments (libDPR protocol instruments live on w.dpr).
	batchesC  *obs.Counter
	opsC      *obs.Counter
	batchLatH *obs.Histogram
	batchOpsH *obs.Histogram
}

// batchScratch is the per-connection reusable state of batch execution.
type batchScratch struct {
	results  []wire.OpResult
	versions []core.Version
	reply    wire.BatchReply
}

func (sc *batchScratch) grow(n int) {
	if cap(sc.results) < n {
		sc.results = make([]wire.OpResult, n)
	} else {
		sc.results = sc.results[:n]
	}
	if cap(sc.versions) < n {
		sc.versions = make([]core.Version, n)
	} else {
		sc.versions = sc.versions[:n]
	}
}

// NewWorker starts a D-Redis worker.
func NewWorker(cfg WorkerConfig, meta metadata.Service) (*Worker, error) {
	srv, err := serve.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	so := newStateObject(cfg.Device, fmt.Sprintf("dredis-%d", cfg.ID), cfg.AOF)
	w := &Worker{cfg: cfg, so: so, meta: meta, srv: srv}
	dw, err := libdpr.NewWorker(libdpr.WorkerConfig{
		ID:                 cfg.ID,
		Addr:               srv.Addr(),
		CheckpointInterval: cfg.CheckpointInterval,
		// Pre-encode the piggybacked cut once per refresh so replies splice
		// bytes instead of re-serializing the map per batch.
		EncodeCut: func(c core.Cut) []byte { return wire.AppendCut(nil, c) },
		Obs:       cfg.Obs,
		TraceSize: cfg.TraceSize,
	}, so, meta)
	if err != nil {
		srv.Stop()
		so.close()
		return nil, err
	}
	w.dpr = dw
	dw.OnCutAdvance(srv.PushCutAdvance)
	w.registerObs()
	srv.Start(func() serve.Handler {
		sc := &batchScratch{}
		lane := dw.NewLane()
		return serve.Handler{
			Execute: func(req *wire.BatchRequest) (*wire.BatchReply, *wire.ErrorReply) {
				return w.executeBatch(req, sc, lane)
			},
			Close: lane.Close,
		}
	})
	return w, nil
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
		obs.L("store", "dredis"),
	}
	w.batchesC = reg.Counter("dpr_server_batches_total",
		"Batches executed by the serving layer.", lbls...)
	w.opsC = reg.Counter("dpr_server_ops_total",
		"Operations executed by the serving layer.", lbls...)
	w.batchLatH = reg.Histogram("dpr_server_batch_latency_seconds",
		"Server-side batch execution latency (admission through reply assembly).", lbls...)
	w.batchOpsH = reg.ValueHistogram("dpr_server_batch_ops",
		"Operations per executed batch.", lbls...)
}

// DebugState assembles the /debug/dpr snapshot, layering serving-layer
// counters onto the libDPR protocol view.
func (w *Worker) DebugState() obs.DPRState {
	st := w.dpr.DebugState("dredis")
	st.Batches = w.batchesC.Value()
	st.Ops = w.opsC.Value()
	return st
}

// ID implements cluster.RollbackTarget.
func (w *Worker) ID() core.WorkerID { return w.cfg.ID }

// Addr returns the listen address.
func (w *Worker) Addr() string { return w.srv.Addr() }

// Rollback implements cluster.RollbackTarget.
func (w *Worker) Rollback(wl core.WorldLine, cut core.Cut) error {
	return w.dpr.Rollback(wl, cut)
}

// DPR exposes the libDPR worker.
func (w *Worker) DPR() *libdpr.Worker { return w.dpr }

// Stop shuts down the worker: the serving frame (listener, live connections
// and their goroutines), then the libDPR loop, then the wrapped instance.
func (w *Worker) Stop() {
	w.srv.Stop()
	w.dpr.Stop()
	w.so.close()
}

// ExecuteBatch runs the server-side libDPR pipeline for one batch: admission,
// shared-latch execution on the unmodified store, dependency recording, and
// reply assembly.
func (w *Worker) ExecuteBatch(req *wire.BatchRequest) (*wire.BatchReply, *wire.ErrorReply) {
	lane := w.dpr.NewLane()
	defer lane.Close()
	return w.executeBatch(req, &batchScratch{}, lane)
}

// executeBatch is ExecuteBatch with a caller-held scratch; the reply aliases
// sc and is valid until the next execution with the same scratch.
//
// Deliberately NOT //dpr:noalloc: every operation crosses redisclone's
// channel-based event loop, so the key must be copied into the command
// struct (string(op.Key)) — it outlives this frame's wire buffer. The
// alloc-free serving discipline applies to the framing/decode layers around
// this call, not to the wrapped store (§6 wraps an unmodified cache-store).
func (w *Worker) executeBatch(req *wire.BatchRequest, sc *batchScratch, lane *libdpr.ExecLane) (*wire.BatchReply, *wire.ErrorReply) {
	start := time.Now()
	if _, err := w.dpr.AdmitBatchGuarded(req.Header, lane); err != nil {
		code := wire.ErrCodeRejected
		if errors.Is(err, libdpr.ErrStaleBatch) {
			code = wire.ErrCodeStale
		}
		return nil, &wire.ErrorReply{
			Code:      code,
			WorldLine: w.dpr.WorldLine(),
			Message:   err.Error(),
		}
	}
	defer w.dpr.ReleaseBatch(req.Header, lane, true)
	// Shared latch: commits (exclusive) cannot interleave, so the whole
	// batch executes in one version.
	w.so.latch.RLock()
	version := core.Version(w.so.current.Load())
	sc.grow(len(req.Ops))
	results := sc.results
	for i, op := range req.Ops {
		switch op.Kind {
		case wire.OpUpsert:
			if err := w.so.srv.Set(string(op.Key), op.Value); err != nil {
				results[i] = wire.OpResult{Status: wire.StatusError, Version: version}
			} else {
				results[i] = wire.OpResult{Status: wire.StatusOK, Version: version}
			}
		case wire.OpRead:
			v, ok, err := w.so.srv.Get(string(op.Key))
			switch {
			case err != nil:
				results[i] = wire.OpResult{Status: wire.StatusError, Version: version}
			case !ok:
				results[i] = wire.OpResult{Status: wire.StatusNotFound, Version: version}
			default:
				results[i] = wire.OpResult{Status: wire.StatusOK, Version: version, Value: v}
			}
		case wire.OpDelete:
			if _, err := w.so.srv.Del(string(op.Key)); err != nil {
				results[i] = wire.OpResult{Status: wire.StatusError, Version: version}
			} else {
				results[i] = wire.OpResult{Status: wire.StatusOK, Version: version}
			}
		case wire.OpRMW:
			var delta int64
			if len(op.Value) >= 8 {
				delta = int64(binary.LittleEndian.Uint64(op.Value))
			}
			if _, err := w.so.srv.Incr(string(op.Key), delta); err != nil {
				results[i] = wire.OpResult{Status: wire.StatusError, Version: version}
			} else {
				results[i] = wire.OpResult{Status: wire.StatusOK, Version: version}
			}
		default:
			results[i] = wire.OpResult{Status: wire.StatusError, Version: version}
		}
	}
	w.so.latch.RUnlock()

	w.dpr.RecordDependency(version, req.Header.Dep)
	for i := range results {
		sc.versions[i] = results[i].Version
	}
	dprReply := w.dpr.Reply(sc.versions)
	sc.reply = wire.BatchReply{
		WorldLine: dprReply.WorldLine,
		Results:   results,
		Cut:       dprReply.Cut,
		// Spliced verbatim by AppendBatchReply, skipping per-batch map
		// serialization.
		EncodedCut: w.dpr.EncodedCut(),
	}
	w.batchesC.Inc()
	w.opsC.Add(uint64(len(req.Ops)))
	w.batchOpsH.ObserveValue(uint64(len(req.Ops)))
	w.batchLatH.Observe(time.Since(start))
	return &sc.reply, nil
}
