package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// WorldLineTracker implements the worker-side world-line discipline of §4.2.
// Clients append their world-line to every request; a StateObject executes a
// request only if the world-lines match. If the StateObject's world-line is
// larger the request is rejected (the client is operating in a pre-recovery
// world and must compute its surviving prefix first); if smaller, execution
// is delayed until the StateObject has recovered into the requested
// world-line.
type WorldLineTracker struct {
	mu sync.Mutex
	// current is read lock-free on the per-operation admission fast path.
	current atomic.Uint64
	// advanced is closed and replaced, under mu, by every Advance: what a
	// request from a newer world-line waits on.
	advanced chan struct{}
	// recovered maps world-line -> cut the system rolled back to when that
	// world-line was spawned; clients ask for it to compute survival.
	recovered map[WorldLine]Cut
}

// NewWorldLineTracker starts at world-line wl (0 for a fresh cluster).
func NewWorldLineTracker(wl WorldLine) *WorldLineTracker {
	t := &WorldLineTracker{advanced: make(chan struct{}), recovered: make(map[WorldLine]Cut)}
	t.current.Store(uint64(wl))
	return t
}

// Current returns the tracker's world-line.
func (t *WorldLineTracker) Current() WorldLine {
	return WorldLine(t.current.Load())
}

// Advance moves to world-line wl, recording the cut that recovery restored.
// Calls with wl at or below the current world-line are ignored (duplicate
// recovery notifications).
func (t *WorldLineTracker) Advance(wl WorldLine, restoredTo Cut) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if wl <= WorldLine(t.current.Load()) {
		return
	}
	t.recovered[wl] = restoredTo.Clone()
	t.current.Store(uint64(wl))
	close(t.advanced)
	t.advanced = make(chan struct{})
}

// RecoveredCut returns the cut the system restored to when entering wl.
func (t *WorldLineTracker) RecoveredCut(wl WorldLine) (Cut, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.recovered[wl]
	return c, ok
}

// Admit checks a request carrying world-line wl against the tracker.
//   - wl == current: admitted immediately.
//   - wl > current: the worker lags; Admit blocks until the worker advances
//     (bounded by timeout) — the "delay execution until after recovery" case.
//   - wl < current: returns ErrWorldLineMismatch; the client must recover.
func (t *WorldLineTracker) Admit(wl WorldLine, timeout time.Duration) error {
	// Lock-free fast path: the overwhelmingly common case is a matching
	// world-line on the per-operation hot path.
	cur := WorldLine(t.current.Load())
	if wl == cur {
		return nil
	}
	if wl < cur {
		return ErrWorldLineMismatch
	}
	// Slow path: the request is from a future world-line; wait (bounded) for
	// the Advance that local recovery ends with.
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		t.mu.Lock()
		cur, advanced := WorldLine(t.current.Load()), t.advanced
		t.mu.Unlock()
		if wl == cur {
			return nil
		}
		if wl < cur {
			return ErrWorldLineMismatch
		}
		select {
		case <-advanced:
		case <-deadline.C:
			return ErrWorldLineMismatch
		}
	}
}
