// Package cluster implements the recovery round of paper §4.1's cluster
// manager (Kubernetes / Service Fabric in the paper): assign the next
// world-line, temporarily halt DPR progress, tell every worker to roll back to
// the last DPR cut, and resume progress once all of them report back. Failure
// detection and restarts belong to the deployment: an in-process cluster
// injects failures directly, dpr-finder names the workers whose heartbeats
// stopped, and dfaster.Restart brings a failed worker back.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"dpr/internal/core"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/obs"
)

// Recovery-round instruments, shared by every manager in the process (the
// deployment runs one).
var (
	recoveriesC = obs.Default.Counter("dpr_cluster_recoveries_total",
		"Recovery rounds completed by the cluster manager.")
	recoveryDurH = obs.Default.Histogram("dpr_cluster_recovery_duration_seconds",
		"Wall-clock duration of a recovery round (freeze through resume).")
	ackTimeoutsC = obs.Default.Counter("dpr_cluster_recovery_ack_timeouts_total",
		"Recovery rounds that resumed DPR progress at the ack bound, without every live member's acknowledgement.")
)

// ackBound is how long a recovery round waits for live members to acknowledge
// the new world-line before it resumes DPR progress anyway: a member that
// never answers must not keep the cluster frozen, and one that comes back late
// rolls itself back from the finder's world-line when it does.
const ackBound = 10 * time.Second

// RollbackTarget is a worker the manager can command to roll back; both
// in-process libdpr.Workers and network worker frontends implement it.
type RollbackTarget interface {
	ID() core.WorkerID
	Rollback(wl core.WorldLine, cut core.Cut) error
}

// Manager coordinates failure recovery across workers.
type Manager struct {
	meta     *metadata.Store
	ackBound time.Duration // ackBound; tests shorten it

	mu       sync.Mutex
	targets  map[core.WorkerID]RollbackTarget
	detached map[core.WorkerID]bool

	// Recoveries counts completed recovery rounds (diagnostics).
	recoveries int
}

// NewManager builds a manager over the metadata store.
func NewManager(meta *metadata.Store) *Manager {
	return &Manager{
		meta:     meta,
		ackBound: ackBound,
		targets:  make(map[core.WorkerID]RollbackTarget),
		detached: make(map[core.WorkerID]bool),
	}
}

// Attach registers a worker for rollback orchestration.
func (m *Manager) Attach(t RollbackTarget) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.targets[t.ID()] = t
	delete(m.detached, t.ID())
}

// Detach removes a worker (it left the cluster or crashed; a crashed
// worker's restarted incarnation re-Attaches). Until then recovery rounds
// neither roll it back nor wait for its acknowledgement.
func (m *Manager) Detach(id core.WorkerID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.targets, id)
	m.detached[id] = true
}

// Recoveries returns the number of completed recovery rounds.
func (m *Manager) Recoveries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recoveries
}

// OnFailure runs one recovery round in response to a detected failure; down
// names the workers known to have failed:
//
//  1. Halt DPR progress and assign the next world-line (metadata store).
//  2. Command every attached worker not down to roll back to the recovery cut.
//  3. Resume DPR progress once every registered member has acknowledged the
//     new world-line, except those down or detached: attached workers ack
//     inside their rollback, the rest when they roll themselves back from
//     the finder. After ackBound the round resumes anyway and counts a
//     timeout.
//
// Failed workers are expected to be restarted (by the caller / environment)
// to their checkpoint at the recovery cut (dfaster.Restart) before or while
// survivors roll back. Returns the new world-line and the cut the system
// recovered to. Safe to call again while a previous recovery is still in
// flight (nested failures, §7.4): the world-line advances again and workers
// re-roll to the same frozen cut.
func (m *Manager) OnFailure(down ...core.WorkerID) (core.WorldLine, core.Cut, error) {
	start := time.Now()
	wl, cut := m.meta.BeginRecovery()

	m.mu.Lock()
	skip := make(map[core.WorkerID]bool, len(down)+len(m.detached))
	for id := range m.detached {
		skip[id] = true
	}
	for _, id := range down {
		skip[id] = true
	}
	targets := make([]RollbackTarget, 0, len(m.targets))
	for id, t := range m.targets {
		if !skip[id] {
			targets = append(targets, t)
		}
	}
	m.mu.Unlock()

	var wg sync.WaitGroup
	errs := make([]error, len(targets))
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t RollbackTarget) {
			defer wg.Done()
			errs[i] = t.Rollback(wl, cut)
		}(i, t)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return wl, cut, fmt.Errorf("cluster: worker %d rollback: %w", targets[i].ID(), err)
		}
	}
	if !m.meta.AwaitAcks(wl, skip, m.ackBound) {
		ackTimeoutsC.Inc()
	}
	// Unfreeze only if no newer round began while this one's rollbacks ran:
	// otherwise the nested round still needs the cut pinned.
	m.meta.CompleteRecoveryFor(wl)
	m.mu.Lock()
	m.recoveries++
	m.mu.Unlock()
	recoveriesC.Inc()
	recoveryDurH.Observe(time.Since(start))
	return wl, cut, nil
}

var _ RollbackTarget = (*libdpr.Worker)(nil)
