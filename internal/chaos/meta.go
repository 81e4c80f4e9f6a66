package chaos

import (
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/core"
	"dpr/internal/metadata"
)

// serviceHook wraps the real metadata store with two chaos controls:
//
//   - an adjustable extra latency applied to every call a caller waits for
//     (the one-way AnnounceCommit is lost instead), modeling metadata
//     access spikes (the paper prices every DPR design decision in metadata
//     round-trips, §3.1, so the harness must survive them being slow);
//   - a per-worker address override, so Members() hands clients the worker's
//     FaultProxy address instead of its real listen address. Workers register
//     their real addresses; all client traffic then flows through the fault
//     taps, and a restarted worker keeps its (stable) proxy address.
//
// Both workers and client sessions talk to the hook, a worker through its own
// view (see worker); the cluster manager and the invariant samplers talk to
// the raw store underneath.
type serviceHook struct {
	inner   metadata.Service
	latency atomic.Int64 // extra ns per call
	// deflated, when set, names the one worker and world-line whose
	// recovered cut the worker's view halves (InjectSkippedRollback).
	deflated atomic.Pointer[deflation]

	mu    sync.Mutex
	addrs map[core.WorkerID]string
}

func newServiceHook(inner metadata.Service) *serviceHook {
	return &serviceHook{inner: inner, addrs: make(map[core.WorkerID]string)}
}

func (h *serviceHook) setLatency(d time.Duration) { h.latency.Store(int64(d)) }

type deflation struct {
	worker core.WorkerID
	wl     core.WorldLine
}

// workerView is the hook as one worker sees it: every call answered as any
// caller's, except the recovered cut of a deflated round.
type workerView struct {
	*serviceHook
	id core.WorkerID
}

// worker returns worker id's view of the hook.
func (h *serviceHook) worker(id core.WorkerID) *workerView { return &workerView{h, id} }

func (v *workerView) RecoveredCut(wl core.WorldLine) (core.Cut, error) {
	c, err := v.serviceHook.RecoveredCut(wl)
	if d := v.deflated.Load(); err == nil && d != nil && d.worker == v.id && d.wl == wl {
		c[v.id] = c.Get(v.id) / 2 // the store hands out a copy
	}
	return c, err
}

func (h *serviceHook) setAddr(w core.WorkerID, addr string) {
	h.mu.Lock()
	h.addrs[w] = addr
	h.mu.Unlock()
}

func (h *serviceHook) pause() {
	if d := time.Duration(h.latency.Load()); d > 0 {
		time.Sleep(d)
	}
}

func (h *serviceHook) RegisterWorker(w core.WorkerID, addr string) error {
	h.pause()
	return h.inner.RegisterWorker(w, addr)
}

func (h *serviceHook) DeregisterWorker(w core.WorkerID) error {
	h.pause()
	return h.inner.DeregisterWorker(w)
}

func (h *serviceHook) ReportVersion(w core.WorkerID, v core.Version, deps []core.Token) error {
	h.pause()
	return h.inner.ReportVersion(w, v, deps)
}

func (h *serviceHook) State() (core.Cut, core.Version, core.WorldLine, error) {
	h.pause()
	return h.inner.State()
}

func (h *serviceHook) Members() (map[core.WorkerID]string, error) {
	h.pause()
	members, err := h.inner.Members()
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	for w, addr := range h.addrs {
		if _, ok := members[w]; ok {
			members[w] = addr
		}
	}
	h.mu.Unlock()
	return members, nil
}

func (h *serviceHook) OwnerOf(partition uint64) (core.WorkerID, error) {
	h.pause()
	return h.inner.OwnerOf(partition)
}

func (h *serviceHook) SetOwner(partition uint64, w core.WorkerID) error {
	h.pause()
	return h.inner.SetOwner(partition, w)
}

func (h *serviceHook) RecoveredCut(wl core.WorldLine) (core.Cut, error) {
	h.pause()
	return h.inner.RecoveredCut(wl)
}

func (h *serviceHook) AckWorldLine(w core.WorkerID, wl core.WorldLine) error {
	h.pause()
	return h.inner.AckWorldLine(w, wl)
}

// AnnounceCommit is one-way — no caller waits for it — so a latency spike
// cannot delay it from the caller's side: while one is injected the hook loses
// the announcement instead, which is the other thing a slow channel does to a
// message nobody retries, and puts the join-on-persisted-Vmax path under the
// same fault schedules as the announced one.
func (h *serviceHook) AnnounceCommit(w core.WorkerID, wl core.WorldLine, v core.Version) {
	if h.latency.Load() > 0 {
		return
	}
	h.inner.AnnounceCommit(w, wl, v)
}

// WaitStateChange forwards the push path; the injected latency models a slow
// notification channel.
func (h *serviceHook) WaitStateChange(since uint64, timeout time.Duration) (uint64, error) {
	h.pause()
	return h.inner.WaitStateChange(since, timeout)
}

// elastic exposes the inner store's membership/migration extension. The
// chaos harness always wraps a *metadata.Store, which implements it; the
// hook forwards so migration coordination (and the target worker's
// CompleteMigrate commit point) also pays injected metadata latency, and so
// Members() keeps routing migration streams through the fault proxies.
func (h *serviceHook) elastic() metadata.ElasticService {
	return h.inner.(metadata.ElasticService)
}

func (h *serviceHook) Join(w core.WorkerID, addr string) error {
	h.pause()
	return h.elastic().Join(w, addr)
}

func (h *serviceHook) Leave(w core.WorkerID) error {
	h.pause()
	return h.elastic().Leave(w)
}

func (h *serviceHook) BeginMigrate(partitions []uint64, from, to core.WorkerID) (uint64, error) {
	h.pause()
	return h.elastic().BeginMigrate(partitions, from, to)
}

func (h *serviceHook) CompleteMigrate(id uint64) error {
	h.pause()
	return h.elastic().CompleteMigrate(id)
}

func (h *serviceHook) AbortMigrate(id uint64) (bool, error) {
	h.pause()
	return h.elastic().AbortMigrate(id)
}

func (h *serviceHook) Migrations() ([]metadata.Migration, error) {
	h.pause()
	return h.elastic().Migrations()
}

var _ metadata.Service = (*serviceHook)(nil)
var _ metadata.ElasticService = (*serviceHook)(nil)
