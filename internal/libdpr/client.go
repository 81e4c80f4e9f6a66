package libdpr

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/core"
	"dpr/internal/metadata"
	"dpr/internal/obs"
)

var sessionIDs atomic.Uint64

// Client-side instruments are process-wide (sessions come and go too fast to
// label individually) and registered once, on first session creation.
var (
	clientObsOnce  sync.Once
	commitLatency  *obs.Histogram
	survivalErrors *obs.Counter
)

func registerClientObs() {
	clientObsOnce.Do(func() {
		commitLatency = obs.Default.Histogram("dpr_client_commit_latency_seconds",
			"Latency from issuing a batch to its last operation being covered by a committed cut (one outstanding probe per session).")
		survivalErrors = obs.Default.Counter("dpr_client_survival_errors_total",
			"Survival errors surfaced to applications after rollbacks erased part of a session.")
	})
}

// Session is the client-side libDPR state for one session: it assigns
// sequence numbers, computes dependency headers for outgoing batches,
// digests DPR reply headers (committed prefixes, rollback notifications),
// and surfaces SurvivalErrors when a failure erased part of the session.
//
// A Session is safe for concurrent use by the issuing thread and background
// completion threads, mirroring relaxed DPR (§5.4).
type Session struct {
	id      uint64
	tracker *core.SessionTracker
	meta    metadata.Service

	// issueWL is the world-line the application issues on: the tracker's,
	// except between a rollback that erased something and its Acknowledge.
	// Batches are started and replies digested against it with one tracker
	// call and no session lock: the tracker refuses both once it has left that
	// world-line, which is what freezes sequence numbers and the committed
	// prefix while a SurvivalError is unacknowledged — advancing the prefix
	// then would extend it over the rollback's exception holes before the
	// application has seen the exception list.
	issueWL atomic.Uint64

	// mu is taken off the batch path only: by the failure path, by commit
	// waiters, and when a fold has moved the prefix.
	//
	//dpr:lockorder libdpr.Session.mu < core.SessionTracker.mu
	mu sync.Mutex
	// failure holds a pending SurvivalError the application has not yet
	// consumed; further operations fail fast until Acknowledge.
	failure *core.SurvivalError
	// folded is non-nil while a WaitCommit is parked; the next fold of a cut
	// into the committed prefix, or the next failure, closes and clears it.
	folded chan struct{}

	// Commit-latency probe: at most one outstanding sample per session, so
	// measuring the paper's Fig 12 metric (issue → covered by a committed
	// cut) costs two atomics per batch and never allocates. probeSeq is the
	// probed batch's last sequence number (0 = idle); probeAt its issue time.
	probeSeq atomic.Uint64
	probeAt  atomic.Int64
}

// NewSession creates a session at the metadata service's current world-line.
// relaxed selects relaxed DPR (the default in the paper's systems).
func NewSession(meta metadata.Service, relaxed bool) (*Session, error) {
	_, _, wl, err := meta.State()
	if err != nil {
		return nil, err
	}
	registerClientObs()
	s := &Session{id: sessionIDs.Add(1), tracker: core.NewSessionTracker(wl, relaxed), meta: meta}
	s.issueWL.Store(uint64(wl))
	return s, nil
}

// ID returns the globally unique session id.
func (s *Session) ID() uint64 { return s.id }

// Tracker exposes the underlying session tracker (read-mostly diagnostics).
func (s *Session) Tracker() *core.SessionTracker { return s.tracker }

// NextBatch reserves n sequence numbers and builds the batch header to send
// with them. Returns an error if an unacknowledged failure is pending.
func (s *Session) NextBatch(n int) (BatchHeader, error) {
	for {
		wl := core.WorldLine(s.issueWL.Load())
		first, vs, dep, ok := s.tracker.StartBatch(wl, n)
		if ok {
			if n > 0 && s.probeSeq.Load() == 0 {
				s.probeAt.Store(time.Now().UnixNano())
				s.probeSeq.Store(first + uint64(n) - 1)
			}
			return BatchHeader{SessionID: s.id, WorldLine: wl, Vs: vs, SeqStart: first, NumOps: uint32(n), Dep: dep}, nil
		}
		// The tracker has left wl. handleFailure moves it under mu, together with
		// the failure to report or (nothing erased) the world-line to issue on
		// from now: after mu either the failure is there or the retry succeeds.
		if f := s.pending(); f != nil {
			return BatchHeader{}, f
		}
	}
}

// pending returns the unacknowledged SurvivalError, if any.
func (s *Session) pending() *core.SurvivalError {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}

// resolveProbe completes the outstanding commit-latency probe if the
// committed prefix now covers it. CAS claims the probe so concurrent
// completion threads record the sample exactly once.
func (s *Session) resolveProbe(p uint64) {
	target := s.probeSeq.Load()
	if target == 0 || p < target {
		return
	}
	if !s.probeSeq.CompareAndSwap(target, 0) {
		return
	}
	commitLatency.Observe(time.Duration(time.Now().UnixNano() - s.probeAt.Load()))
}

// CompleteBatch digests a batch reply: it resolves each operation to its
// token, folds the piggybacked cut into the committed prefix if it is not the
// one folded last, and checks for world-line changes. The returned error, if
// any, is a *core.SurvivalError the application must handle (the next
// NextBatch also returns it until Acknowledge is called).
func (s *Session) CompleteBatch(worker core.WorkerID, h BatchHeader, r BatchReply) error {
	if r.WorldLine != core.WorldLine(s.issueWL.Load()) {
		// A rollback to digest, or a reply that describes erased executions.
		return s.NotifyWorldLine(r.WorldLine)
	}
	if p, folded := s.tracker.CompleteAndFold(r.WorldLine, h.SeqStart, worker, r.Versions, r.Cut, r.CutGen); folded {
		s.landed(p)
	}
	return nil
}

// AbandonBatch tells the session the transport has given up on h's operations
// (core.SessionTracker.Abandon: what that means for Committed and WaitCommit,
// and what is returned), drops a commit-latency probe aimed at one of them —
// it would never resolve under strict DPR, and under relaxed DPR would time an
// operation that never committed — and wakes the commit waits they were
// holding.
func (s *Session) AbandonBatch(h BatchHeader) int {
	n := s.tracker.Abandon(h.WorldLine, h.SeqStart, int(h.NumOps))
	if target := s.probeSeq.Load(); target >= h.SeqStart && target-h.SeqStart < uint64(h.NumOps) {
		s.probeSeq.CompareAndSwap(target, 0)
	}
	s.mu.Lock()
	s.wakeLocked()
	s.mu.Unlock()
	return n
}

// landed follows a fold that moved the committed prefix to p: it resolves the
// commit-latency probe and wakes parked WaitCommit callers.
func (s *Session) landed(p uint64) {
	s.resolveProbe(p)
	s.mu.Lock()
	s.wakeLocked()
	s.mu.Unlock()
}

// wakeLocked releases every parked WaitCommit; the caller holds mu.
func (s *Session) wakeLocked() {
	if s.folded != nil {
		close(s.folded)
		s.folded = nil
	}
}

// NotifyWorldLine lets transports inject a world-line observation (e.g. from
// an error response). Triggers failure handling if it is ahead of ours.
func (s *Session) NotifyWorldLine(wl core.WorldLine) error {
	if wl > s.tracker.WorldLine() {
		return s.handleFailure(wl)
	}
	return nil
}

func (s *Session) handleFailure(wl core.WorldLine) error {
	// A session that fell several recoveries behind must survive EVERY
	// intermediate rollback, not just the latest: each one erased its own
	// suffix, and version counters keep climbing afterwards, so the newest
	// cut can numerically re-cover versions an earlier rollback already
	// erased. Compose the per-worker minimum over the skipped world-lines.
	// (Every tracked operation predates the first skipped recovery — any
	// later completion would have announced that world-line first.)
	cut, err := composeRecoveredCuts(s.meta, s.tracker.WorldLine(), wl)
	if err != nil {
		// Cannot resolve yet; surface a transient error, caller retries.
		return fmt.Errorf("libdpr: world-line %d announced but cut unavailable: %w", wl, err)
	}
	// OnFailure and the failure flag update under one critical section: the
	// moment the tracker adopts the new world-line, every other thread must
	// already see the pending failure, or a concurrent RefreshCommit could
	// slip past its failure check and advance the committed prefix over the
	// rollback's exception holes before the application acknowledged them.
	s.mu.Lock()
	surv := s.tracker.OnFailure(wl, cut)
	if surv != nil {
		s.failure = surv
		s.wakeLocked()
	} else if s.failure == nil {
		// Stale, or nothing was erased: the application has nothing to
		// acknowledge and issues on the tracker's world-line.
		s.issueWL.Store(uint64(s.tracker.WorldLine()))
	}
	s.mu.Unlock()
	// Drop any outstanding probe: the rollback may have erased the probed
	// batch, in which case its target seq would never be covered.
	s.probeSeq.Store(0)
	if surv == nil {
		return nil // stale
	}
	survivalErrors.Inc()
	return surv
}

// composeRecoveredCuts folds the recovered cuts of world-lines (from, to]
// into one survival constraint: the per-worker minimum. Used whenever a
// participant (session or worker) discovers it fell more than one recovery
// behind and must survive the whole chain at once.
func composeRecoveredCuts(meta metadata.Service, from, to core.WorldLine) (core.Cut, error) {
	var cut core.Cut
	for w := from + 1; w <= to; w++ {
		c, err := meta.RecoveredCut(w)
		if err != nil {
			return nil, err
		}
		if cut == nil {
			cut = c.Clone()
		} else {
			cut.Lower(c)
		}
	}
	if cut == nil {
		cut = core.Cut{} // stale call: nothing to compose
	}
	return cut, nil
}

// Acknowledge clears a pending SurvivalError after the application has
// reacted to it (reissued or abandoned the lost suffix); the session then
// continues on the new world-line.
func (s *Session) Acknowledge() *core.SurvivalError {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.failure
	s.failure = nil
	s.issueWL.Store(uint64(s.tracker.WorldLine()))
	return f
}

// Committed returns the committed prefix point and exception list, shared
// until it changes (SessionTracker.Committed): it must not be modified.
func (s *Session) Committed() (uint64, []uint64) { return s.tracker.Committed() }

// RefreshCommit polls the finder once and folds the latest cut into the
// committed prefix; returns the new prefix. Also detects world-line changes.
// Like NextBatch it fails fast while a SurvivalError is unacknowledged: the
// cut observed then belongs to the post-rollback world, and folding it in
// would commit over exception holes the application has not yet seen.
func (s *Session) RefreshCommit() (uint64, error) {
	cut, _, wl, err := s.meta.State()
	if err != nil {
		return 0, err
	}
	if err := s.NotifyWorldLine(wl); err != nil {
		return 0, err
	}
	if f := s.pending(); f != nil {
		return 0, f
	}
	// The tracker ignores the cut unless it is still on world-line wl.
	p, _ := s.tracker.AdvanceCommitted(wl, cut)
	s.landed(p)
	return p, nil
}

// ObserveCut folds an unsolicited cut observation — a pushed
// wire.FrameCutAdvance, delivered to an idle session without a batch reply to
// piggyback on — into the committed prefix, exactly as CompleteBatch folds a
// piggybacked one; a world-line change runs the failure path, and an
// unacknowledged SurvivalError is returned. cut is not retained; callers may
// reuse the map (connection read loops decode pushes into a held
// wire.CutAdvance).
func (s *Session) ObserveCut(wl core.WorldLine, cut core.Cut) error {
	if wl != core.WorldLine(s.issueWL.Load()) {
		if err := s.NotifyWorldLine(wl); err != nil {
			return err
		}
		if f := s.pending(); f != nil {
			return f
		}
	}
	if p, folded := s.tracker.CompleteAndFold(wl, 0, 0, nil, cut, 0); folded {
		s.landed(p)
	}
	return nil
}

// WaitCommit blocks until every operation at or below seq is committed or
// abandoned — the prefix has reached seq and, under relaxed DPR, no exception
// at or below it can still resolve (an operation inside an exception hole is
// not committed, wherever the prefix stands; an abandoned one never will be,
// so it does not hold the wait) — or a failure intervenes, or the timeout
// expires; under strict DPR, where the prefix cannot pass an abandoned
// operation, one at or below seq fails the wait at once with a
// *core.AbandonedError. This is the paper's "sessions may wait for commit at
// any time" group-commit affordance (§2). It waits on the folds the transport
// delivers (piggybacked and pushed cuts); behind them it asks the finder
// itself, for a session with no transport (co-located only) or a lost push:
// on entry, then at an interval doubling from 1 ms up to manualHeartbeat.
func (s *Session) WaitCommit(seq uint64, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	backstop, every := time.NewTimer(0), time.Millisecond
	defer backstop.Stop()
	for {
		s.mu.Lock()
		if f := s.failure; f != nil {
			s.mu.Unlock()
			return f
		}
		if s.folded == nil {
			s.folded = make(chan struct{})
		}
		folded := s.folded // before the check: a fold landing in between closes it
		s.mu.Unlock()
		p, open, hole := s.tracker.CommitStatus(seq)
		if hole != 0 {
			return &core.AbandonedError{Seq: hole}
		}
		if p >= seq && open == 0 {
			return nil
		}
		select {
		case <-folded:
		case <-backstop.C:
			if _, err := s.RefreshCommit(); err != nil {
				return err
			}
			backstop.Reset(every)
			every = min(2*every, manualHeartbeat)
		case <-deadline.C:
			return fmt.Errorf("libdpr: commit of seq %d timed out (prefix at %d, %d exceptions)", seq, p, open)
		}
	}
}
