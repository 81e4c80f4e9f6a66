package libdpr

import (
	"time"

	"dpr/internal/core"
)

// PumpGapSeals exposes the pump's duty-cycle constant to the external tests.
const PumpGapSeals = pumpGapSeals

// ManualHeartbeat exposes the session backstop period to the external tests.
const ManualHeartbeat = manualHeartbeat

// SuppressDirtyWake is the pump-off ablation: it pins the dirty mark, so no
// executed batch ever produces the false→true edge that wakes the commit
// pump, and commits are left to the heartbeat. Call it before any batch
// executes.
func (w *Worker) SuppressDirtyWake() { w.dirty.Store(true) }

// CommitIdle is the commit of the pump and the heartbeat: declined unless the
// state object is idle and persisted is still its persisted version.
func (w *Worker) CommitIdle(persisted core.Version) (bool, error) {
	return w.triggerCommit(true, persisted)
}

// ProbeTarget is the sequence number the session's outstanding commit-latency
// probe waits for (0: none).
func (s *Session) ProbeTarget() uint64 { return s.probeSeq }

// SetAdmitTimeout shortens the admission bound for a test. Call it before any
// batch is admitted.
func (w *Worker) SetAdmitTimeout(d time.Duration) { w.admitTimeout = d }

// RollbackForTest runs the worker's rollback step directly, as the watch loop
// and the heartbeat do when both see the same new world-line.
func (w *Worker) RollbackForTest(wl core.WorldLine, cut core.Cut) error { return w.rollback(wl, cut) }
