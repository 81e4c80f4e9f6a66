// Package chaos is a deterministic, seed-driven fault-injection harness for
// the real DPR serving stack. It stands up an actual cluster — D-FASTER and
// D-Redis workers serving loopback TCP through fault-injecting proxies, a
// metadata store with a configurable cut finder, and the cluster manager —
// then replays a pseudo-random schedule of faults (worker kill/restart,
// connection severs/delays/drops, storage faults, metadata latency spikes)
// under concurrent client traffic, while per-session history checkers
// validate the §4.3 prefix-recoverability invariants:
//
//  1. no committed operation is ever lost;
//  2. per-worker cut positions are monotone within a world-line;
//  3. no session observes state from a rolled-back world-line;
//  4. post-rollback reads are consistent with the surviving prefix.
//
// Everything derives from one seed: the schedule, the workload, and the key
// choices. A failing run prints the seed and the full fault schedule; re-run
// with CHAOS_SEED=<seed> to replay it.
package chaos

import (
	"fmt"
	"sync"
	"time"

	"dpr/internal/cluster"
	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/dredis"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// Config sizes a chaos cluster.
type Config struct {
	// DFaster and DRedis are worker counts. D-FASTER workers are the
	// kill/restart targets (they have a recovery path); D-Redis workers
	// participate in rollbacks and take network faults but stay up.
	DFaster, DRedis int
	// Partitions is the cluster-wide virtual partition count.
	Partitions int
	// Checkpoint is the per-worker heartbeat behind the commit pump (small,
	// so an idle worker's Vmax catch-up does not hold short scenarios' cuts
	// back).
	Checkpoint time.Duration
	// Finder selects the cut-finding algorithm under test.
	Finder metadata.FinderKind
	// IndexShards is the kv hash-index shard count per worker (0 = the kv
	// package default). Values >1 exercise the parallel serving path:
	// sharded epoch-protected index, per-shard checkpoint scans, and
	// parallel recovery rebuild — all under fault injection.
	IndexShards int
	// RetryBadOwner bounds a session's ownership-miss retries (0 = client
	// default). Elastic scenarios raise it: during a live handover the
	// moving partitions answer BadOwner until the target claims, and
	// sessions must ride the freeze window out rather than fail through it.
	RetryBadOwner int
}

// workerSlot is one cluster seat: a stable identity (worker ID, proxy,
// partitions, device) whose serving process may be killed and restarted.
type workerSlot struct {
	id    core.WorkerID
	parts []uint64
	proxy *wire.FaultProxy

	// D-FASTER only: the flaky device survives restarts (it is the durable
	// medium); the worker process is replaced on each restart.
	flaky *storage.FlakyDevice
	df    *dfaster.Worker

	dr *dredis.Worker
}

func (s *workerSlot) dfaster() bool { return s.flaky != nil }

// Harness owns a running chaos cluster.
type Harness struct {
	cfg   Config
	store *metadata.Store
	svc   *serviceHook
	mgr   *cluster.Manager
	slots []*workerSlot

	// slotMu guards the df pointer of every slot: CrashRestart swaps it on
	// the schedule goroutine while elastic operations (join/leave/migrate,
	// which run asynchronously so faults land mid-handover) pick donors from
	// the same slots.
	slotMu sync.Mutex

	// Elastic membership state (elastic.go): one spare seat joins and leaves
	// the cluster mid-schedule. Single-flight — at most one elastic operation
	// runs at a time — but asynchronous with respect to the fault schedule,
	// so crashes and severs land mid-migration. elasticErrs records failures
	// that would wedge the cluster (a drained member that could not leave);
	// aborted handovers are chaos-normal and only logged.
	elasticMu   sync.Mutex
	elasticBusy bool
	elasticWG   sync.WaitGroup
	spare       *workerSlot
	spareUp     bool
	elasticErrs []string

	// logf, when set (Execute wires it to the test log), narrates recovery
	// rounds: recovered world-lines, cuts, and restore positions — the facts
	// needed to make sense of a violation dump.
	logf func(format string, args ...any)
}

func (h *Harness) logdbg(format string, args ...any) {
	if h.logf != nil {
		h.logf(format, args...)
	}
}

const kvBuckets = 1 << 10

// NewHarness builds and starts the cluster: workers listening on real TCP
// ports, one fault proxy per worker, partitions assigned round-robin.
func NewHarness(cfg Config) (*Harness, error) {
	h := &Harness{
		cfg:   cfg,
		store: metadata.NewStore(metadata.Config{Finder: cfg.Finder}),
	}
	h.svc = newServiceHook(h.store)
	h.mgr = cluster.NewManager(h.store)

	total := cfg.DFaster + cfg.DRedis
	for i := 0; i < total; i++ {
		slot := &workerSlot{id: core.WorkerID(i + 1)}
		for p := uint64(i); p < uint64(cfg.Partitions); p += uint64(total) {
			slot.parts = append(slot.parts, p)
		}
		h.slots = append(h.slots, slot)
	}

	for _, slot := range h.slots[:cfg.DFaster] {
		slot.flaky = storage.NewFlaky(storage.NewNull())
		w, err := dfaster.NewWorker(dfaster.WorkerConfig{
			ID:                 slot.id,
			ListenAddr:         "127.0.0.1:0",
			CheckpointInterval: cfg.Checkpoint,
			Partitions:         cfg.Partitions,
			Device:             slot.flaky,
			KV:                 kv.Config{BucketCount: kvBuckets, IndexShards: cfg.IndexShards},
		}, h.svc.worker(slot.id))
		if err != nil {
			h.Close()
			return nil, err
		}
		slot.df = w
		if err := w.ClaimPartitions(slot.parts...); err != nil {
			h.Close()
			return nil, err
		}
		if err := h.attachProxy(slot, w.Addr()); err != nil {
			return nil, err
		}
	}
	for _, slot := range h.slots[cfg.DFaster:] {
		w, err := dredis.NewWorker(dredis.WorkerConfig{
			ID:                 slot.id,
			ListenAddr:         "127.0.0.1:0",
			CheckpointInterval: cfg.Checkpoint,
			Device:             storage.NewNull(),
		}, h.svc.worker(slot.id))
		if err != nil {
			h.Close()
			return nil, err
		}
		slot.dr = w
		// D-Redis has no ownership enforcement; partitions are assigned
		// directly in the metadata store.
		for _, p := range slot.parts {
			if err := h.store.SetOwner(p, slot.id); err != nil {
				h.Close()
				return nil, err
			}
		}
		if err := h.attachProxy(slot, w.Addr()); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func (h *Harness) attachProxy(slot *workerSlot, backend string) error {
	proxy, err := wire.NewFaultProxy(backend)
	if err != nil {
		h.Close()
		return err
	}
	slot.proxy = proxy
	h.svc.setAddr(slot.id, proxy.Addr())
	return nil
}

// Close tears the cluster down.
func (h *Harness) Close() {
	h.elasticWG.Wait()
	slots := h.slots
	if h.spare != nil {
		slots = append(append([]*workerSlot(nil), slots...), h.spare)
	}
	for _, slot := range slots {
		if slot.proxy != nil {
			slot.proxy.Close()
		}
		if slot.df != nil {
			slot.df.Stop()
		}
		if slot.dr != nil {
			slot.dr.Stop()
		}
	}
}

// ObsDump snapshots every live component's /debug/dpr view — the finder plus
// each slot's current worker process (slots whose process is mid-restart are
// skipped). On a checker failure these land next to the seed and schedule, so
// a red run carries the cluster's protocol state, not just the symptom.
func (h *Harness) ObsDump() []obs.DPRState {
	out := []obs.DPRState{h.store.DebugState()}
	h.slotMu.Lock()
	live := make([]*workerSlot, len(h.slots))
	copy(live, h.slots)
	if h.spare != nil {
		live = append(live, h.spare)
	}
	dfs := make([]*dfaster.Worker, len(live))
	for i, slot := range live {
		dfs[i] = slot.df
	}
	h.slotMu.Unlock()
	for i, slot := range live {
		switch {
		case dfs[i] != nil:
			out = append(out, dfs[i].DebugState())
		case slot.dr != nil:
			out = append(out, slot.dr.DebugState())
		}
	}
	return out
}

// Service returns the metadata service clients and workers use (with fault
// hooks applied).
func (h *Harness) Service() metadata.Service { return h.svc }

// Store returns the raw metadata store (no fault hooks) for samplers.
func (h *Harness) Store() *metadata.Store { return h.store }

// CrashRestart kills a D-FASTER worker process, runs the cluster recovery
// round (survivors roll back to the frozen cut), and restarts the worker
// from its durable checkpoint at the recovery cut through dfaster.Restart,
// as dpr-server -recover does — the full §4.1 failure story over real
// components. The restart retries while the storage device read-faults,
// modeling a recovery racing a sick disk.
func (h *Harness) CrashRestart(slotIdx int) error {
	slot := h.slots[slotIdx]
	h.slotMu.Lock()
	w := slot.df
	slot.df = nil
	h.slotMu.Unlock()
	if !slot.dfaster() || w == nil {
		return fmt.Errorf("chaos: slot %d not a running dfaster worker", slotIdx)
	}

	// Crash: the manager stops tracking the worker, in-flight client
	// connections die, the process goes away. The proxy stays — it is the
	// worker's stable address — but dials now hit a dead backend.
	h.mgr.Detach(slot.id)
	w.Stop()
	slot.proxy.SeverAll()

	wl, cut, err := h.mgr.OnFailure()
	if err != nil {
		return err
	}

	h.logdbg("chaos: recovery wl=%d cut=%v; restoring worker %d at pos=%d", wl, cut, slot.id, cut.Get(slot.id))
	var w2 *dfaster.Worker
	deadline := time.Now().Add(15 * time.Second)
	for {
		w2, err = dfaster.Restart(dfaster.WorkerConfig{
			ID:                 slot.id,
			ListenAddr:         "127.0.0.1:0",
			CheckpointInterval: h.cfg.Checkpoint,
			Partitions:         h.cfg.Partitions,
			Device:             slot.flaky,
			KV:                 kv.Config{BucketCount: kvBuckets, IndexShards: h.cfg.IndexShards},
		}, h.svc.worker(slot.id))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: worker %d restart never succeeded: %w", slot.id, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	slot.proxy.SetBackend(w2.Addr())
	h.mgr.Attach(w2)
	h.slotMu.Lock()
	slot.df = w2
	h.slotMu.Unlock()
	return nil
}

// clearFaults turns every injected fault off (schedule epilogue). The sever
// ends connections a blackhole left waiting for traffic it swallowed.
func (h *Harness) clearFaults() {
	h.svc.setLatency(0)
	for _, slot := range h.slots {
		slot.proxy.SetDelay(0)
		slot.proxy.SetBlackhole(false)
		slot.proxy.SeverAll()
		if slot.flaky != nil {
			slot.flaky.FailWrites(false)
			slot.flaky.FailReads(false)
		}
	}
}

// InjectSkippedRollback deliberately breaks invariant 1: it runs a recovery
// round in which the victim restores itself below its position in the
// recovered cut — half of it, below the committed frontier — and so erases
// committed data, exactly the bug a worker that "recovered" from the wrong
// checkpoint would introduce. The lie is told to the victim alone, in the
// recovered cut its own refresh reads for the round's world-line; the round
// and every other reader see the true cut. The checker must flag it.
// Test-only by nature; exported so the self-test in this package documents
// the checker's detection power. Returns the world-line of the injected
// round alongside the good and applied cuts so the caller can correlate them
// with session observations.
func (h *Harness) InjectSkippedRollback(victim int) (core.WorldLine, core.Cut, core.Cut, error) {
	id := h.slots[victim].id
	h.svc.deflated.Store(&deflation{worker: id, wl: h.store.WorldLine() + 1})
	defer h.svc.deflated.Store(nil)
	wl, cut, err := h.mgr.OnFailure()
	bad := cut.Clone()
	bad[id] = cut.Get(id) / 2
	return wl, cut, bad, err
}
