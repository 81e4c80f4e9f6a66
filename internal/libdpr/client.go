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
// A session has one owner, the goroutine that issues its operations — a
// session is a logical thread — and every call is the owner's: none takes a
// lock, and none is safe from another goroutine. What a transport learns for
// the session on other goroutines (replies off a connection, pushed cuts,
// world-lines an error named, batches it gave up on) it keeps until the owner
// takes it in and digests it here, with CompleteBatch, Abandon,
// NotifyWorldLine and FoldCut (dfaster.Client; DESIGN.md "Session
// bookkeeping").
type Session struct {
	id      uint64
	tracker *core.SessionTracker
	meta    metadata.Service

	// issueWL is the world-line the application issues on: the tracker's,
	// except between a rollback that erased something and its Acknowledge.
	// Batches are started and replies digested against it: the tracker refuses
	// both once it has left that world-line, which is what freezes sequence
	// numbers and the committed prefix while a SurvivalError is unacknowledged
	// — advancing the prefix then would extend it over the rollback's
	// exception holes before the application has seen the exception list.
	issueWL core.WorldLine
	// failure holds a pending SurvivalError the application has not yet
	// consumed; further operations fail fast until Acknowledge.
	failure *core.SurvivalError
	// retryWL is a world-line announced to the session whose recovered cut
	// metadata could not yet say: the next Poll tries it again.
	retryWL core.WorldLine
	// lost is the lowest sequence number abandoned on the session's world-line
	// that TakeLost has not yet reported (0: none).
	lost uint64

	// Commit-latency probe: at most one outstanding sample per session, so
	// measuring the paper's Fig 12 metric (issue → covered by a committed
	// cut) costs a compare per batch and never allocates. probeSeq is the
	// probed batch's last sequence number (0 = idle); probeAt its issue time.
	probeSeq uint64
	probeAt  int64
}

// NewSession creates a session at the metadata service's current world-line.
// relaxed selects relaxed DPR (the default in the paper's systems).
func NewSession(meta metadata.Service, relaxed bool) (*Session, error) {
	_, _, wl, err := meta.State()
	if err != nil {
		return nil, err
	}
	registerClientObs()
	return &Session{id: sessionIDs.Add(1), tracker: core.NewSessionTracker(wl, relaxed), meta: meta, issueWL: wl}, nil
}

// ID returns the globally unique session id.
func (s *Session) ID() uint64 { return s.id }

// Tracker exposes the underlying session tracker to the owner.
func (s *Session) Tracker() *core.SessionTracker { return s.tracker }

// NextBatch reserves n sequence numbers and builds the batch header to send
// with them. Returns Poll's error, if any.
//
//dpr:noalloc
func (s *Session) NextBatch(n int) (BatchHeader, error) {
	if err := s.Poll(); err != nil {
		return BatchHeader{}, err
	}
	first, vs, dep, ok := s.tracker.StartBatch(s.issueWL, n)
	if !ok { // the tracker left issueWL only with a failure pending, which Poll returned
		return BatchHeader{}, fmt.Errorf("libdpr: session %d left world-line %d", s.id, s.issueWL)
	}
	if n > 0 && s.probeSeq == 0 {
		s.probeAt = time.Now().UnixNano()
		s.probeSeq = first + uint64(n) - 1
	}
	return BatchHeader{SessionID: s.id, WorldLine: s.issueWL, Vs: vs, SeqStart: first, NumOps: uint32(n), Dep: dep}, nil
}

// Poll returns the unacknowledged SurvivalError, if any — or the transient
// error of a world-line announced before metadata could say what it
// recovered, which Poll asks metadata again first.
func (s *Session) Poll() error {
	if s.retryWL != 0 {
		return s.retry()
	}
	if s.failure != nil {
		return s.failure
	}
	return nil
}

// retry asks metadata again about the world-line it could not resolve, then
// polls; kept out of Poll so that Poll, on every owner call, inlines.
func (s *Session) retry() error {
	wl := s.retryWL
	s.retryWL = 0
	if err := s.NotifyWorldLine(wl); err != nil {
		return err
	}
	return s.Poll()
}

// Abandon tells the session the transport has given up on h's operations
// (core.SessionTracker.Abandon: what that means for Committed and
// WaitCommit), remembers the lowest of them for TakeLost and drops a
// commit-latency probe aimed at one of them — it would never resolve under
// strict DPR, and under relaxed DPR would time an operation that never
// committed.
func (s *Session) Abandon(h BatchHeader) {
	if h.NumOps == 0 {
		return
	}
	if s.tracker.Abandon(h.WorldLine, h.SeqStart, int(h.NumOps)) > 0 && (s.lost == 0 || h.SeqStart < s.lost) {
		s.lost = h.SeqStart
	}
	if s.probeSeq >= h.SeqStart && s.probeSeq-h.SeqStart < uint64(h.NumOps) {
		s.probeSeq = 0
	}
}

// resolveProbe completes the outstanding commit-latency probe if the
// committed prefix now covers it.
func (s *Session) resolveProbe(p uint64) {
	if s.probeSeq == 0 || p < s.probeSeq {
		return
	}
	s.probeSeq = 0
	commitLatency.Observe(time.Duration(time.Now().UnixNano() - s.probeAt))
}

// CompleteBatch digests a batch reply: it resolves each operation to its
// token, folds the piggybacked cut into the committed prefix if it is not the
// one folded last, and checks for world-line changes. The returned error, if
// any, is a *core.SurvivalError the application must handle (the next
// NextBatch also returns it until Acknowledge is called). versions and cut are
// not retained.
//
//dpr:noalloc
func (s *Session) CompleteBatch(worker core.WorkerID, h BatchHeader, r BatchReply) error {
	if r.WorldLine != s.issueWL {
		// A rollback to digest, or a reply that describes erased executions.
		return s.NotifyWorldLine(r.WorldLine)
	}
	if p, folded := s.tracker.CompleteAndFold(r.WorldLine, h.SeqStart, worker, r.Versions, r.Cut, r.CutGen); folded {
		s.resolveProbe(p)
	}
	return nil
}

// TakeLost returns the lowest sequence number abandoned on the session's
// world-line since it was last asked (0: none) and forgets it.
func (s *Session) TakeLost() uint64 {
	lost := s.lost
	s.lost = 0
	return lost
}

// NotifyWorldLine digests a world-line observation (e.g. from an error
// response). Triggers failure handling if it is ahead of ours.
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
		s.retryWL = max(s.retryWL, wl)
		return fmt.Errorf("libdpr: world-line %d announced but cut unavailable: %w", wl, err)
	}
	surv := s.tracker.OnFailure(wl, cut)
	if surv != nil {
		s.failure = surv
	} else if s.failure == nil {
		// Stale, or nothing was erased: the application has nothing to
		// acknowledge and issues on the tracker's world-line.
		s.issueWL = s.tracker.WorldLine()
	}
	// Drop any outstanding probe: the rollback may have erased the probed
	// batch, in which case its target seq would never be covered.
	s.probeSeq = 0
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
// continues on the new world-line. The error accounts for every operation
// issued before it, so abandoned ones among them are not reported again.
func (s *Session) Acknowledge() *core.SurvivalError {
	f := s.failure
	s.failure = nil
	if f != nil {
		s.lost = 0
	}
	s.issueWL = s.tracker.WorldLine()
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
	if err := s.Poll(); err != nil {
		return 0, err
	}
	cut, _, wl, err := s.meta.State()
	if err != nil {
		return 0, err
	}
	if err := s.NotifyWorldLine(wl); err != nil {
		return 0, err
	}
	if s.failure != nil {
		return 0, s.failure
	}
	// The tracker ignores the cut unless it is still on world-line wl.
	p, _ := s.tracker.AdvanceCommitted(wl, cut)
	s.resolveProbe(p)
	return p, nil
}

// FoldCut folds a cut observed on world-line wl without a reply of the
// session's — a pushed wire.FrameCutAdvance, or the piggybacked cuts of
// replies a transport merged — into the committed prefix, as CompleteBatch
// folds a piggybacked one: a world-line change runs the failure path, and an
// unacknowledged SurvivalError is returned. cut is not retained.
func (s *Session) FoldCut(wl core.WorldLine, cut core.Cut) error {
	if wl != s.issueWL {
		if err := s.NotifyWorldLine(wl); err != nil {
			return err
		}
		if s.failure != nil {
			return s.failure
		}
	}
	if p, folded := s.tracker.CompleteAndFold(wl, 0, 0, nil, cut, 0); folded {
		s.resolveProbe(p)
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
// any time" group-commit affordance (§2).
//
// park, if not nil, is the session's transport (dfaster.Client.WaitCommit):
// each call digests what the transport holds for the owner and returns a
// channel signalled when it next has something, which the wait sleeps on.
// Behind it, or with no transport (a session whose batches run co-located),
// WaitCommit asks the finder itself: on entry, then at an interval doubling
// from 1 ms up to manualHeartbeat.
func (s *Session) WaitCommit(seq uint64, timeout time.Duration, park func() (<-chan struct{}, error)) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	backstop, every := time.NewTimer(0), time.Millisecond
	defer backstop.Stop()
	var news <-chan struct{} // nil without a transport: never ready
	for {
		if park != nil {
			var err error
			if news, err = park(); err != nil {
				return err
			}
		}
		if err := s.Poll(); err != nil {
			return err
		}
		p, open, hole := s.tracker.CommitStatus(seq)
		if hole != 0 {
			return &core.AbandonedError{Seq: hole}
		}
		if p >= seq && open == 0 {
			return nil
		}
		select {
		case <-news:
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
