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
// session is a logical thread — and the owner's calls take no lock: NextBatch,
// CompleteBatch, NotifyWorldLine, Poll, Committed, RefreshCommit, WaitCommit,
// Acknowledge, TakeLost and the tracker's. What other goroutines learn for the
// session — a reply off a connection (Deliver), a pushed cut (ObserveCut), an
// error naming a newer world-line (AnnounceWorldLine), a batch the transport
// gave up on (AbandonBatch) — they hand off to the owner, which takes it in at
// its next call (DESIGN.md "Session bookkeeping"). Those four are safe from
// any goroutine.
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

	in inbox
	// spare is the owner's half of the inbox's double buffer.
	spare handoff
}

// inbox is the hand-off from other goroutines to the session's owner. A
// poster appends under mu; the owner's cost on a call that finds nothing is
// the one load of ready, and when something waits it swaps the buffer for its
// spare under mu, so what it applies it applies with no lock held.
type inbox struct {
	ready atomic.Bool
	// announced is the highest world-line posted; the owner stores what it has
	// taken in to known. A transport waiting on the session's progress asks
	// Announced, which is both loads.
	announced, known atomic.Uint64
	mu               sync.Mutex
	buf              handoff
	// wake is non-nil while the owner is parked in WaitCommit: the next post
	// closes it.
	wake chan struct{}
}

// handoff is what waits for the owner: replies and abandons in arrival order
// (their versions in one array), the pushed and piggybacked cuts of the
// newest world-line merged into one (keepCutLocked), and the highest
// world-line announced.
type handoff struct {
	posts    []post
	versions []core.Version
	cut      core.Cut
	cutWL    core.WorldLine
	hasCut   bool
	notice   core.WorldLine
}

// post is one reply (versions[from:to] of its handoff) or abandon.
type post struct {
	worker   core.WorkerID
	wl       core.WorldLine
	seqStart uint64
	n        uint32
	from, to int
	abandon  bool
}

// NewSession creates a session at the metadata service's current world-line.
// relaxed selects relaxed DPR (the default in the paper's systems).
func NewSession(meta metadata.Service, relaxed bool) (*Session, error) {
	_, _, wl, err := meta.State()
	if err != nil {
		return nil, err
	}
	registerClientObs()
	s := &Session{id: sessionIDs.Add(1), tracker: core.NewSessionTracker(wl, relaxed), meta: meta, issueWL: wl}
	s.in.known.Store(uint64(wl))
	return s, nil
}

// ID returns the globally unique session id.
func (s *Session) ID() uint64 { return s.id }

// Tracker exposes the underlying session tracker to the owner, with the
// hand-off taken in (Poll; a failure found there is returned by the next call
// that returns errors).
func (s *Session) Tracker() *core.SessionTracker {
	_ = s.Poll()
	return s.tracker
}

// NextBatch reserves n sequence numbers and builds the batch header to send
// with them. Returns an error if an unacknowledged failure is pending, or
// one the hand-off brought is.
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

// Poll takes in what other goroutines handed the session since its owner last
// looked and returns the unacknowledged SurvivalError, if any — or the
// transient error of a world-line announced before metadata can say what it
// recovered, which the next Poll retries.
func (s *Session) Poll() error {
	if s.in.ready.Load() || s.retryWL != 0 {
		if err := s.take(); err != nil {
			return err
		}
	}
	if s.failure != nil {
		return s.failure
	}
	return nil
}

// take applies the hand-off: the replies and abandons in the order they were
// posted, then the world-lines announced, then the newest cut.
func (s *Session) take() error {
	s.in.mu.Lock()
	b := s.in.buf
	s.in.buf = s.spare
	s.in.ready.Store(false)
	s.in.mu.Unlock()
	notice := max(b.notice, s.retryWL)
	s.retryWL = 0
	var err error
	for _, p := range b.posts {
		switch {
		case p.abandon:
			s.abandon(p)
		case p.wl == s.issueWL: // a reply from a newer world-line announced it, and describes executions it may have erased
			if q, folded := s.tracker.CompleteAndFold(p.wl, p.seqStart, p.worker, b.versions[p.from:p.to], nil, 0); folded {
				s.resolveProbe(q)
			}
		}
	}
	if notice > s.tracker.WorldLine() {
		err = s.NotifyWorldLine(notice)
	}
	if b.hasCut && err == nil {
		err = s.observe(b.cutWL, b.cut)
	}
	b.posts, b.versions, b.hasCut, b.notice = b.posts[:0], b.versions[:0], false, 0
	s.spare = b
	return err
}

// abandon resolves an abandon the hand-off brought
// (core.SessionTracker.Abandon), remembers the lowest abandoned operation for
// TakeLost and drops a commit-latency probe aimed at one of them — it would
// never resolve under strict DPR, and under relaxed DPR would time an
// operation that never committed.
func (s *Session) abandon(p post) {
	if s.tracker.Abandon(p.wl, p.seqStart, int(p.n)) > 0 && (s.lost == 0 || p.seqStart < s.lost) {
		s.lost = p.seqStart
	}
	if s.probeSeq >= p.seqStart && s.probeSeq-p.seqStart < uint64(p.n) {
		s.probeSeq = 0
	}
}

// postLocked marks the hand-off ready and wakes a parked WaitCommit; the
// caller holds in.mu.
func (s *Session) postLocked() {
	s.in.ready.Store(true)
	if s.in.wake != nil {
		close(s.in.wake)
		s.in.wake = nil
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

// CompleteBatch digests a batch reply on the owner: it resolves each
// operation to its token, folds the piggybacked cut into the committed prefix
// if it is not the one folded last, and checks for world-line changes. The
// returned error, if any, is a *core.SurvivalError the application must handle
// (the next NextBatch also returns it until Acknowledge is called). A reply
// that came off a connection, on another goroutine, is Deliver's.
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

// Deliver hands a batch reply that arrived on another goroutine to the
// owner, which digests it as CompleteBatch does at its next call. r's
// versions and cut are copied, not retained. Safe from any goroutine.
func (s *Session) Deliver(worker core.WorkerID, h BatchHeader, r BatchReply) {
	s.in.mu.Lock()
	b := &s.in.buf
	from := len(b.versions)
	b.versions = append(b.versions, r.Versions...)
	b.posts = append(b.posts, post{worker: worker, wl: r.WorldLine, seqStart: h.SeqStart, n: h.NumOps, from: from, to: len(b.versions)})
	s.keepCutLocked(r.WorldLine, r.Cut)
	s.announceLocked(r.WorldLine)
	s.postLocked()
	s.in.mu.Unlock()
}

// keepCutLocked adds cut, observed on wl, to the one the owner folds next,
// unless it is empty or one from a later world-line waits; one from an
// earlier world-line is dropped. On one world-line the two merge by
// per-worker maximum: replies off different connections carry their
// workers' views of the finder's cut, which lag by different amounts, so the
// last posted need not be the newest, and the union of two cuts the finder
// committed on one world-line is committed. The caller holds in.mu.
func (s *Session) keepCutLocked(wl core.WorldLine, cut core.Cut) {
	b := &s.in.buf
	if len(cut) == 0 || b.hasCut && wl < b.cutWL {
		return
	}
	if b.cut == nil {
		b.cut = make(core.Cut, len(cut))
	}
	if !b.hasCut || wl > b.cutWL {
		clear(b.cut)
	}
	b.cut.Merge(cut)
	b.cutWL, b.hasCut = wl, true
}

// announceLocked records that a post named world-line wl. The caller holds
// in.mu.
func (s *Session) announceLocked(wl core.WorldLine) {
	if uint64(wl) > s.in.announced.Load() {
		s.in.announced.Store(uint64(wl))
	}
	s.in.buf.notice = max(s.in.buf.notice, wl)
}

// Announced reports whether a post named a world-line the owner has not yet
// taken in: its next Poll digests a rollback. Safe from any goroutine.
func (s *Session) Announced() bool { return s.in.announced.Load() > s.in.known.Load() }

// AbandonBatch tells the session the transport has given up on h's
// operations (core.SessionTracker.Abandon: what that means for Committed and
// WaitCommit). The owner takes it in at its next call, where it also drops a
// commit-latency probe aimed at one of them and wakes a parked WaitCommit.
// Safe from any goroutine.
func (s *Session) AbandonBatch(h BatchHeader) {
	if h.NumOps == 0 {
		return
	}
	s.in.mu.Lock()
	s.in.buf.posts = append(s.in.buf.posts, post{wl: h.WorldLine, seqStart: h.SeqStart, n: h.NumOps, abandon: true})
	s.postLocked()
	s.in.mu.Unlock()
}

// TakeLost returns the lowest sequence number abandoned on the session's
// world-line since it was last asked (0: none) and forgets it.
func (s *Session) TakeLost() uint64 {
	lost := s.lost
	s.lost = 0
	return lost
}

// NotifyWorldLine digests a world-line observation on the owner (e.g. from
// an error response). Triggers failure handling if it is ahead of ours.
func (s *Session) NotifyWorldLine(wl core.WorldLine) error {
	if wl > s.tracker.WorldLine() {
		return s.handleFailure(wl)
	}
	return nil
}

// AnnounceWorldLine hands a world-line observation made on another goroutine
// to the owner, which digests it as NotifyWorldLine at its next call. Safe
// from any goroutine.
func (s *Session) AnnounceWorldLine(wl core.WorldLine) {
	s.in.mu.Lock()
	s.announceLocked(wl)
	s.postLocked()
	s.in.mu.Unlock()
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
	s.in.known.Store(uint64(s.tracker.WorldLine()))
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
// until it changes (SessionTracker.Committed): it must not be modified. It
// takes in the hand-off first; a failure found there is returned by the next
// call that returns errors, and the prefix stays where it was until then.
func (s *Session) Committed() (uint64, []uint64) {
	_ = s.Poll()
	return s.tracker.Committed()
}

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

// ObserveCut hands an unsolicited cut observation — a pushed
// wire.FrameCutAdvance, delivered to an idle session without a batch reply to
// piggyback on — to the owner, which folds it into the committed prefix at its
// next call exactly as CompleteBatch folds a piggybacked one; a world-line
// change runs the failure path there. cut is copied, not retained; callers may
// reuse the map (connection read loops decode pushes into a held
// wire.CutAdvance). Safe from any goroutine.
func (s *Session) ObserveCut(wl core.WorldLine, cut core.Cut) {
	s.in.mu.Lock()
	s.keepCutLocked(wl, cut)
	s.announceLocked(wl)
	s.postLocked()
	s.in.mu.Unlock()
}

// observe folds a cut the hand-off brought: a world-line change runs the
// failure path, and an unacknowledged SurvivalError is returned.
func (s *Session) observe(wl core.WorldLine, cut core.Cut) error {
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
// any time" group-commit affordance (§2). It waits on what the transport
// hands off (replies, pushed cuts, abandons); behind them it asks the finder
// itself, for a session with no transport (co-located only) or a lost push:
// on entry, then at an interval doubling from 1 ms up to manualHeartbeat.
func (s *Session) WaitCommit(seq uint64, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	backstop, every := time.NewTimer(0), time.Millisecond
	defer backstop.Stop()
	for {
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
		case <-s.park():
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

// park returns the channel the next post closes: a closed one if a post is
// already waiting.
func (s *Session) park() <-chan struct{} {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	if s.in.ready.Load() {
		return closedChan
	}
	if s.in.wake == nil {
		s.in.wake = make(chan struct{})
	}
	return s.in.wake
}

var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()
