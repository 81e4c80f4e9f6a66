// Package dredis implements D-Redis (paper §6): an *unmodified* Redis-like
// store (package redisclone) given DPR guarantees by wrapping it with libDPR.
// The wrapper holds one latch: exclusive around BGSAVE-based commits, shared
// around batch execution, so every operation in a batch lands in a single
// version. Restore restarts the underlying instance from the snapshot
// matching the requested version — exactly the integration strategy the
// paper describes for stock Redis.
package dredis

import (
	"fmt"
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
	persistObs atomic.Pointer[func(core.Version, time.Duration)]

	// saves maps version -> redisclone save id, durably mirrored so Restore
	// can find the right snapshot after a process restart.
	savesMu sync.Mutex
	saves   map[core.Version]uint64
	// watch queue: commits whose BGSAVE has neither become durable nor failed
	// yet; a seal is under way until it is empty and the watcher has released
	// the latch.
	watching []versionSave

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type versionSave struct {
	version core.Version
	save    uint64
	at      time.Time
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
	return so.bgSave(v)
}

// BeginCommitIdle implements libdpr.StateObject: BeginCommit(v), unless a
// seal is under way or the persisted version has moved past persisted.
func (so *stateObject) BeginCommitIdle(v, persisted core.Version) (bool, error) {
	so.latch.Lock() // excludes every writer of watching
	defer so.latch.Unlock()
	if len(so.watching) > 0 || so.PersistedVersion() != persisted {
		return false, nil
	}
	return true, so.bgSave(v)
}

// bgSave is BeginCommit under the exclusive latch.
func (so *stateObject) bgSave(v core.Version) error {
	cur := core.Version(so.current.Load())
	if cur > v {
		return nil // a later commit already covers v
	}
	at := time.Now() // the request: the seal is timed from here to LASTSAVE
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
	so.watching = append(so.watching, versionSave{version: v, save: id, at: at})
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
			// A failed save ends its seal unannounced, and an older one still
			// in flight with it: if that one lands, the next seal reports it.
			last := so.srv.LastSave()
			ended := max(last, so.srv.LastFailedSave())
			advanced, took := core.Version(0), time.Duration(0)
			so.savesMu.Lock()
			for len(so.watching) > 0 && so.watching[0].save <= ended {
				if ws := so.watching[0]; ws.save <= last && uint64(ws.version) > so.persisted.Load() {
					so.persisted.Store(uint64(ws.version))
					advanced, took = ws.version, time.Since(ws.at)
				}
				so.watching = so.watching[1:]
			}
			so.savesMu.Unlock()
			// Fire outside savesMu but inside the latch: the seal is under way
			// until the observer returns.
			if f := so.persistObs.Load(); advanced != 0 && f != nil {
				(*f)(advanced, took)
			}
			so.latch.RUnlock()
		}
	}
}

// OnPersist implements libdpr.StateObject: fn is invoked from the save
// watcher whenever the persisted version advances. At most one observer; nil
// unregisters.
func (so *stateObject) OnPersist(fn func(core.Version, time.Duration)) {
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

// Apply implements serve.Applier, and is the whole of D-Redis's batch path:
// under the shared latch commits (exclusive) cannot interleave, so every
// operation of the batch lands in one version. It never refuses a batch, and
// one stateObject serves every connection: the latch is its only state.
func (so *stateObject) Apply(req *wire.BatchRequest, results []wire.OpResult, _ *[]byte) *wire.ErrorReply {
	so.latch.RLock()
	so.srv.Apply(req.Ops, results, core.Version(so.current.Load()))
	so.latch.RUnlock()
	return nil
}

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
	// Obs selects the metrics registry (nil: obs.Default).
	Obs *obs.Registry
}

// Worker is one D-Redis shard: an unmodified redisclone instance behind the
// DPR worker frame (package serve), which is the libDPR proxy of §6.
type Worker struct {
	*serve.Worker
	so *stateObject
}

// NewWorker starts a D-Redis worker.
func NewWorker(cfg WorkerConfig, meta metadata.Service) (*Worker, error) {
	so := newStateObject(cfg.Device, fmt.Sprintf("dredis-%d", cfg.ID), cfg.AOF)
	frame, err := serve.NewWorker("dredis", libdpr.WorkerConfig{
		ID:                 cfg.ID,
		Addr:               cfg.ListenAddr,
		CheckpointInterval: cfg.CheckpointInterval,
		Obs:                cfg.Obs,
	}, so, meta)
	if err != nil {
		so.close()
		return nil, err
	}
	frame.Start(func() serve.Conn { return serve.Conn{Apply: so} })
	return &Worker{Worker: frame, so: so}, nil
}

// Stop shuts down the worker: the frame (listener, live connections and their
// goroutines, the libDPR loops), then the wrapped instance.
func (w *Worker) Stop() {
	w.Worker.Stop()
	w.so.close()
}

// ExecuteBatch runs one batch through the worker's pipeline without a
// connection, with a lane and scratch of its own.
func (w *Worker) ExecuteBatch(req *wire.BatchRequest) (*wire.BatchReply, *wire.ErrorReply) {
	lane := w.NewLane()
	defer lane.Close()
	return w.Execute(req, w.so, new(serve.Scratch), lane)
}
