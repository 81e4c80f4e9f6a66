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

	mu sync.Mutex
	// failure holds a pending SurvivalError the application has not yet
	// consumed; further operations fail fast until Acknowledge.
	failure *core.SurvivalError
	// lastCut caches the newest piggybacked cut folded into the tracker
	// (with the world-line it was observed on); replies carrying an
	// unchanged cut skip the O(uncommitted) prefix scan, which would
	// otherwise make high-throughput sessions quadratic between checkpoints.
	lastCut   core.Cut
	lastCutWL core.WorldLine
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
	return &Session{
		id:      sessionIDs.Add(1),
		tracker: core.NewSessionTracker(wl, relaxed),
		meta:    meta,
	}, nil
}

// SessionState is the compact evicted form of a Session: the id plus the
// tracker's archive, a few words in total. At million-session scale the
// dormant majority of sessions is held in this form and rehydrated with
// ResumeSession on the next operation.
type SessionState struct {
	ID      uint64
	Archive core.SessionArchive
}

// Evict dehydrates a quiescent session into its compact state. It fails
// (returning false) if the session has in-flight or uncommitted operations,
// or an unacknowledged survival error — evicting those would lose state the
// application still needs. An outstanding commit-latency probe is dropped
// (it is a metric sample, not session state). After a successful Evict the
// Session must not be used again; keep only the returned state.
func (s *Session) Evict() (SessionState, bool) {
	s.mu.Lock()
	if s.failure != nil {
		s.mu.Unlock()
		return SessionState{}, false
	}
	s.mu.Unlock()
	a, ok := s.tracker.Archive()
	if !ok {
		return SessionState{}, false
	}
	s.probeSeq.Store(0)
	return SessionState{ID: s.id, Archive: a}, true
}

// ResumeSession rehydrates an evicted session. The committed prefix point,
// version clock, world-line, and latest-token dependency are exactly those
// at eviction time; if the cluster crossed recoveries while the session was
// dormant, the next operation (or RefreshCommit) detects the world-line
// change and runs the ordinary failure path — with no uncommitted state, the
// surviving prefix equals the committed floor, so nothing is lost.
func ResumeSession(meta metadata.Service, st SessionState) *Session {
	registerClientObs()
	return &Session{
		id:      st.ID,
		tracker: core.NewSessionTrackerFromArchive(st.Archive),
		meta:    meta,
	}
}

// ID returns the globally unique session id.
func (s *Session) ID() uint64 { return s.id }

// Tracker exposes the underlying session tracker (read-mostly diagnostics).
func (s *Session) Tracker() *core.SessionTracker { return s.tracker }

// NextBatch reserves n sequence numbers and builds the batch header to send
// with them. Returns an error if an unacknowledged failure is pending.
func (s *Session) NextBatch(n int) (BatchHeader, error) {
	// The failure check and the reservation are one critical section with
	// handleFailure's: a failure digested on a completion thread in between
	// would otherwise hand this batch sequence numbers of the new world-line
	// — reissued ones — before the application has acknowledged the rollback.
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.failure; f != nil {
		return BatchHeader{}, f
	}
	h := BatchHeader{
		SessionID: s.id,
		WorldLine: s.tracker.WorldLine(),
		Vs:        s.tracker.VersionClock(),
		SeqStart:  s.tracker.BeginBatch(n),
		NumOps:    uint32(n),
	}
	if dep, ok := s.tracker.LatestToken(); ok {
		h.Dep = dep
	}
	if n > 0 && s.probeSeq.Load() == 0 {
		s.probeAt.Store(time.Now().UnixNano())
		s.probeSeq.Store(h.SeqStart + uint64(n) - 1)
	}
	return h, nil
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
// token, folds the piggybacked cut into the committed prefix, and checks for
// world-line changes. The returned error, if any, is a *core.SurvivalError
// the application must handle (the next NextBatch also returns it until
// Acknowledge is called).
func (s *Session) CompleteBatch(worker core.WorkerID, h BatchHeader, r BatchReply) error {
	if r.WorldLine > s.tracker.WorldLine() {
		return s.handleFailure(r.WorldLine)
	}
	s.tracker.CompleteBatch(r.WorldLine, h.SeqStart, worker, r.Versions)
	if len(r.Cut) > 0 {
		// A pending SurvivalError is the next NextBatch's to report, not
		// this reply's.
		_ = s.foldNew(r.WorldLine, r.Cut)
	}
	return nil
}

// AbandonBatch tells the session the transport has given up on h's operations
// (core.SessionTracker.Abandon: what that means for Committed and WaitCommit,
// and what is returned) and wakes commit waits they were holding.
func (s *Session) AbandonBatch(h BatchHeader) int {
	n := s.tracker.Abandon(h.WorldLine, h.SeqStart, int(h.NumOps))
	s.mu.Lock()
	s.wakeLocked()
	s.mu.Unlock()
	return n
}

// foldNew folds a cut a worker sent — piggybacked or pushed, observed on wl —
// unless it is the one folded last (a repeated cut skips the O(uncommitted)
// prefix scan) or a SurvivalError is unacknowledged, which it returns. The
// prefix is frozen then: advancing it would extend over the rollback's
// exception holes before the application has seen the exception list, making
// Committed() silently misclassify erased operations as committed. cut is not
// retained.
func (s *Session) foldNew(wl core.WorldLine, cut core.Cut) error {
	s.mu.Lock()
	if f := s.failure; f != nil {
		s.mu.Unlock()
		return f
	}
	changed := wl != s.lastCutWL || !s.lastCut.Equal(cut)
	if changed {
		s.lastCut, s.lastCutWL = cut.Clone(), wl
	}
	s.mu.Unlock()
	if changed {
		// The tracker ignores the cut unless it is still on world-line wl.
		s.fold(wl, cut)
	}
	return nil
}

// fold advances the committed prefix to a cut observed on wl, resolves the
// commit-latency probe against it and wakes parked WaitCommit callers.
func (s *Session) fold(wl core.WorldLine, cut core.Cut) uint64 {
	p, _ := s.tracker.AdvanceCommitted(wl, cut)
	s.resolveProbe(p)
	s.mu.Lock()
	s.wakeLocked()
	s.mu.Unlock()
	return p
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
	return f
}

// Committed returns the committed prefix point and exception list.
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
	if wl > s.tracker.WorldLine() {
		if err := s.handleFailure(wl); err != nil {
			return 0, err
		}
	}
	s.mu.Lock()
	if f := s.failure; f != nil {
		s.mu.Unlock()
		return 0, f
	}
	s.mu.Unlock()
	return s.fold(wl, cut), nil
}

// ObserveCut folds an unsolicited cut observation — a pushed
// wire.FrameCutAdvance, delivered to an idle session without a batch reply to
// piggyback on — into the committed prefix, exactly as CompleteBatch folds a
// piggybacked one (see foldNew); a world-line change runs the failure path.
// cut is not retained; callers may reuse the map (connection read loops
// decode pushes into a held wire.CutAdvance).
func (s *Session) ObserveCut(wl core.WorldLine, cut core.Cut) error {
	if wl > s.tracker.WorldLine() {
		if err := s.handleFailure(wl); err != nil {
			return err
		}
	}
	return s.foldNew(wl, cut)
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
