// Package cluster implements the recovery round of paper §4.1's cluster
// manager (Kubernetes / Service Fabric in the paper): temporarily halt DPR
// progress and assign the next world-line, wait until every live worker has
// rolled itself back to the last DPR cut and said so, and resume progress.
// The round commands no worker: each one sees the world-line move on its next
// refresh from the finder, restores itself and acks. Failure detection and
// restarts belong to the deployment: an in-process cluster injects failures
// directly, dpr-finder names the workers whose heartbeats stopped, and
// dfaster.Restart brings a failed worker back.
package cluster

import (
	"sync"
	"time"

	"dpr/internal/core"
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
// rolls itself back from the finder's world-line when it does. Until then the
// finder refuses its reports (metadata.Store.ReportVersion), so what it
// commits on the old world-line stays out of the new one's cut.
const ackBound = 10 * time.Second

// Member is a worker as the manager knows it: by its id.
type Member interface {
	ID() core.WorkerID
}

// Manager runs recovery rounds over the metadata store.
type Manager struct {
	meta     *metadata.Store
	ackBound time.Duration // ackBound; tests shorten it

	mu       sync.Mutex
	detached map[core.WorkerID]bool

	// Recoveries counts completed recovery rounds (diagnostics).
	recoveries int
}

// NewManager builds a manager over the metadata store.
func NewManager(meta *metadata.Store) *Manager {
	return &Manager{
		meta:     meta,
		ackBound: ackBound,
		detached: make(map[core.WorkerID]bool),
	}
}

// Attach undoes Detach: recovery rounds wait for the member's
// acknowledgement again (a crashed worker's restarted incarnation).
func (m *Manager) Attach(t Member) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.detached, t.ID())
}

// Detach marks a worker as gone (it left the cluster or crashed): until it is
// attached again, recovery rounds do not wait for its acknowledgement. A
// stopped worker rolls nothing back, so it must be detached before a round.
func (m *Manager) Detach(id core.WorkerID) {
	m.mu.Lock()
	defer m.mu.Unlock()
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
//  2. Wait until every registered member has acknowledged the new
//     world-line, except those down or detached. A live worker rolls itself
//     back to its position in the recovery cut when its refresh sees the
//     world-line move, and acks; one whose restore fails retries on its next
//     refresh. After ackBound the round goes on anyway and counts a timeout.
//  3. Resume DPR progress.
//
// Failed workers are expected to be restarted (by the caller / environment)
// to their checkpoint at the recovery cut (dfaster.Restart) before or while
// survivors roll back. Returns the new world-line and the cut the system
// recovered to; it never returns with the cut frozen by this round, and its
// error is always nil: a member that cannot roll back costs the round its ack
// bound, not a failure. Safe to
// call again while a previous recovery is still in flight (nested failures,
// §7.4): the world-line advances again and workers re-roll to the same
// frozen cut.
func (m *Manager) OnFailure(down ...core.WorkerID) (core.WorldLine, core.Cut, error) {
	start := time.Now()
	wl, cut := m.meta.BeginRecovery()

	m.mu.Lock()
	skip := make(map[core.WorkerID]bool, len(down)+len(m.detached))
	for id := range m.detached {
		skip[id] = true
	}
	m.mu.Unlock()
	for _, id := range down {
		skip[id] = true
	}
	if !m.meta.AwaitAcks(wl, skip, m.ackBound) {
		ackTimeoutsC.Inc()
	}
	// Unfreeze only if no newer round began meanwhile: otherwise the nested
	// round still needs the cut pinned.
	m.meta.CompleteRecoveryFor(wl)
	m.mu.Lock()
	m.recoveries++
	m.mu.Unlock()
	recoveriesC.Inc()
	recoveryDurH.Observe(time.Since(start))
	return wl, cut, nil
}
