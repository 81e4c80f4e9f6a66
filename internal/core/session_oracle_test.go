package core

// The map-based session tracker this package shipped until issue 25, kept
// verbatim (type names aside) as the reference the interval-based
// SessionTracker is checked against: TestTrackerMatchesOracle drives both with
// the same random schedules and requires every observable to agree.

import (
	"slices"
	"sort"
	"sync"
)

// oracleTracker maintains one client session's SessionOrder (§3): the
// linearizable order of its operations, the token each operation was captured
// in, the session's version clock Vs (§3.2), its world-line (§4.2), and the
// committed prefix derived from DPR-cuts.
//
// Under strict DPR the SessionOrder is the completion order and the committed
// prefix never skips an operation. Under relaxed DPR (§5.4) operations are
// ordered by start time, PENDING operations do not gate later operations, and
// a committed prefix may carry an exception list of unresolved or lost
// operations inside it.
//
// oracleTracker is safe for concurrent use; a session is a logical thread
// but completions can arrive from background network threads.
type oracleTracker struct {
	mu sync.Mutex

	relaxed   bool
	worldLine WorldLine
	vs        Version // largest version observed (the Lamport clock of §3.2)

	nextSeq uint64 // next operation sequence number (first op gets 1)

	// runs holds the capturing tokens of completed, not-yet-committed
	// operations as sorted, non-overlapping sequence ranges. Operations
	// complete in near-sequence order and a checkpoint interval's worth of
	// batches share one (worker, version) token, so tens of thousands of
	// uncommitted operations collapse into a handful of runs — this is what
	// keeps AdvanceCommitted off the per-batch critical path. Committed
	// entries are pruned.
	runs []oracleRun
	// pending holds started, not yet completed operation seqs.
	pending map[uint64]bool
	// abandoned holds, ascending, the seqs the transport gave up on (Abandon):
	// no longer in flight, never committed.
	abandoned []uint64

	committed  uint64   // committed prefix point
	exceptions []uint64 // seqs <= committed that are NOT committed (relaxed)

	// latestSeq/latestTok track the most recently completed operation so
	// LatestToken is O(1) on the per-operation hot path.
	latestSeq uint64
	latestTok Token
}

// oracleRun records that operations start..end (inclusive) were all captured
// by token tok.
type oracleRun struct {
	start, end uint64
	tok        Token
}

// newOracleTracker returns a tracker starting at world-line wl.
// relaxed selects relaxed DPR semantics (the FASTER default).
// The pending map is allocated lazily on the first Begin, so a tracker that
// has not issued an operation costs only the struct itself.
func newOracleTracker(wl WorldLine, relaxed bool) *oracleTracker {
	return &oracleTracker{
		relaxed:   relaxed,
		worldLine: wl,
		nextSeq:   1,
	}
}

// insertRun records seq's capturing token, extending an adjacent run with
// the same token when possible. The caller holds s.mu and has verified seq
// was pending (so it cannot already be inside a run).
func (s *oracleTracker) insertRun(seq uint64, t Token) {
	n := len(s.runs)
	// Fast path: completions arrive in sequence order.
	if n == 0 || seq > s.runs[n-1].end {
		if n > 0 && s.runs[n-1].end+1 == seq && s.runs[n-1].tok == t {
			s.runs[n-1].end = seq
			return
		}
		s.runs = append(s.runs, oracleRun{start: seq, end: seq, tok: t})
		return
	}
	// Out of order (concurrent connections): find the first run ending at or
	// after seq and stitch around it.
	i := sort.Search(n, func(i int) bool { return s.runs[i].end >= seq })
	if i > 0 && s.runs[i-1].end+1 == seq && s.runs[i-1].tok == t {
		s.runs[i-1].end = seq
		if i < n && s.runs[i].start == seq+1 && s.runs[i].tok == t {
			s.runs[i-1].end = s.runs[i].end
			s.runs = append(s.runs[:i], s.runs[i+1:]...)
		}
		return
	}
	if i < n && s.runs[i].start == seq+1 && s.runs[i].tok == t {
		s.runs[i].start = seq
		return
	}
	s.runs = append(s.runs, oracleRun{})
	copy(s.runs[i+1:], s.runs[i:])
	s.runs[i] = oracleRun{start: seq, end: seq, tok: t}
}

// lookupRun returns the capturing token of seq, if tracked. Caller holds s.mu.
func (s *oracleTracker) lookupRun(seq uint64) (Token, bool) {
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].end >= seq })
	if i < len(s.runs) && s.runs[i].start <= seq {
		return s.runs[i].tok, true
	}
	return Token{}, false
}

// Relaxed reports whether the tracker uses relaxed DPR semantics.
func (s *oracleTracker) Relaxed() bool { return s.relaxed }

// WorldLine returns the session's current world-line.
func (s *oracleTracker) WorldLine() WorldLine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.worldLine
}

// VersionClock returns Vs, to be appended to outgoing requests (§3.2).
func (s *oracleTracker) VersionClock() Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vs
}

// Begin assigns the next sequence number to a new operation and records it
// as in flight.
func (s *oracleTracker) Begin() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		s.pending = make(map[uint64]bool)
	}
	seq := s.nextSeq
	s.nextSeq++
	s.pending[seq] = true
	return seq
}

// BeginBatch assigns n consecutive sequence numbers, returning the first.
func (s *oracleTracker) BeginBatch(n int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil && n > 0 {
		s.pending = make(map[uint64]bool, n)
	}
	first := s.nextSeq
	for i := 0; i < n; i++ {
		s.pending[s.nextSeq] = true
		s.nextSeq++
	}
	return first
}

// Complete records that operation seq was executed and captured by token t,
// and advances Vs. Returns false if the operation was already resolved
// (e.g. discarded by a rollback that raced the response).
func (s *oracleTracker) Complete(seq uint64, t Token) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completeLocked(seq, t)
}

func (s *oracleTracker) completeLocked(seq uint64, t Token) bool {
	if !s.pending[seq] {
		return false
	}
	delete(s.pending, seq)
	s.insertRun(seq, t)
	if t.Version > s.vs {
		s.vs = t.Version
	}
	if seq >= s.latestSeq {
		s.latestSeq, s.latestTok = seq, t
	}
	return true
}

// CompleteBatch records n consecutive completions — operations seqStart+i
// captured on worker w in versions[i] — under a single lock acquisition.
// It is the batched form of Complete for the per-batch hot path; versions is
// not retained. wl is the world-line the reply was produced on: a reply from
// an older world-line describes executions a rollback has since erased, and
// recording it here could resolve a reused sequence number with a dead token,
// so it is dropped under the same lock that OnFailure reuses seqs under.
func (s *oracleTracker) CompleteBatch(wl WorldLine, seqStart uint64, w WorkerID, versions []Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wl != s.worldLine {
		return
	}
	for i, v := range versions {
		s.completeLocked(seqStart+uint64(i), Token{Worker: w, Version: v})
	}
}

// Abandon resolves the still-pending operations among seqStart..seqStart+n-1
// as of unknown fate — the transport lost their reply or could not deliver
// them — and returns how many there were. An abandoned operation is never
// reported committed — under relaxed DPR it stays in the exception list for as
// long as the prefix covers it, under strict DPR the prefix stops below it —
// but it no longer counts as in flight and no longer holds a commit wait
// (CommitStatus). A rollback resolves it like a PENDING operation: an
// exception of the SurvivalError if the surviving prefix covers it, forgotten
// either way. wl is the world-line the operations were issued on, checked as
// in CompleteBatch: OnFailure reissues sequence numbers, and an error that
// raced it must not abandon the new ones.
func (s *oracleTracker) Abandon(wl WorldLine, seqStart uint64, n int) (abandoned int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wl != s.worldLine {
		return 0
	}
	for seq := seqStart; seq < seqStart+uint64(n); seq++ {
		if !s.pending[seq] {
			continue
		}
		delete(s.pending, seq)
		i, _ := slices.BinarySearch(s.abandoned, seq)
		s.abandoned = slices.Insert(s.abandoned, i, seq)
		abandoned++
	}
	return abandoned
}

func (s *oracleTracker) isAbandoned(seq uint64) bool {
	_, ok := slices.BinarySearch(s.abandoned, seq)
	return ok
}

// ObserveVersion folds a worker-reported version into Vs
// (Vs = max(Vs, v), §3.2).
func (s *oracleTracker) ObserveVersion(v Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v > s.vs {
		s.vs = v
	}
}

// LatestToken returns the token of the most recently completed operation;
// it is the dependency the next request carries to a different worker.
func (s *oracleTracker) LatestToken() (Token, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latestTok, s.latestSeq != 0
}

// AdvanceCommitted folds a DPR-cut observed on world-line wl into the
// session, advancing the committed prefix point. Returns the new prefix point
// and, under relaxed DPR, the exception list of sequence numbers at or below
// the point that are not yet committed (still pending, or captured in a
// version beyond the cut).
//
// The cut is applied only if wl matches the session's current world-line,
// checked under the same lock: version numbers restart across world-lines, so
// a cut from world-line n applied after a concurrent OnFailure moved the
// session to n+1 would commit erased operations whose tokens merely collide
// numerically with the new world-line's cut.
//
// Strict mode: the prefix stops at the first operation that is pending or
// whose token is outside the cut.
//
// Relaxed mode: the prefix is the largest point such that every *completed*
// operation at or below it has its token inside the cut; operations still
// pending are skipped and reported as exceptions until they resolve.
func (s *oracleTracker) AdvanceCommitted(wl WorldLine, cut Cut) (uint64, []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wl != s.worldLine {
		return s.committed, s.exceptions
	}
	p := s.committed
	if s.relaxed {
		// The relaxed prefix point is the highest completed operation whose
		// token is inside the cut (skipped operations become exceptions),
		// extended over untracked seqs — already committed or resolved as
		// rolled back by OnFailure — that sit directly after it. One pass
		// over the runs replaces the per-sequence scan: a whole run is in or
		// out of the cut.
		var high uint64
		for i := range s.runs {
			if s.runs[i].end > p && cut.Includes(s.runs[i].tok) {
				high = s.runs[i].end
			}
		}
		p = s.extendUntracked(p)
		if high > p {
			p = high
		}
		p = s.extendUntracked(p)
	} else {
		// Strict mode stops at the first pending or uncovered operation.
		for next := p + 1; next < s.nextSeq; next++ {
			if s.pending[next] || s.isAbandoned(next) {
				break
			}
			t, ok := s.lookupRun(next)
			if !ok {
				// Neither pending nor tracked: already committed or rolled
				// back; rolled-back ops are resolved by OnFailure before any
				// commit advancement, so treat as committed.
				p = next
				continue
			}
			if !cut.Includes(t) {
				break
			}
			p = next
		}
	}
	// Relaxed: recompute the exception list for the new point.
	var exceptions []uint64
	if s.relaxed {
		exceptions = s.exceptionsBelow(p, cut)
	}
	s.committed = p
	s.exceptions = exceptions
	// Prune committed tokens (they can never be needed again).
	kept := s.runs[:0]
	for _, r := range s.runs {
		if cut.Includes(r.tok) {
			if r.end <= p {
				continue
			}
			if r.start <= p {
				r.start = p + 1
			}
		}
		kept = append(kept, r)
	}
	s.runs = kept
	if len(s.runs) == 0 {
		// Release the backing array: a quiescent session should cost a few
		// words, not its historical high-water mark.
		s.runs = nil
	}
	return p, exceptions
}

// exceptionsBelow lists, ascending, the operations at or below p that are not
// inside cut: pending, abandoned, or completed with a token beyond it. Caller
// holds s.mu.
func (s *oracleTracker) exceptionsBelow(p uint64, cut Cut) []uint64 {
	var exceptions []uint64
	for seq := range s.pending {
		if seq <= p {
			exceptions = append(exceptions, seq)
		}
	}
	for _, seq := range s.abandoned {
		if seq <= p {
			exceptions = append(exceptions, seq)
		}
	}
	for i := range s.runs {
		r := s.runs[i]
		if r.start > p {
			break
		}
		if !cut.Includes(r.tok) {
			for seq := r.start; seq <= r.end && seq <= p; seq++ {
				exceptions = append(exceptions, seq)
			}
		}
	}
	slices.Sort(exceptions)
	return exceptions
}

// extendUntracked advances x over consecutive seqs that are neither pending
// nor tracked in a run — operations already committed or resolved as rolled
// back. Such gaps appear only after failures, and commit on the first
// advancement that reaches them, so the walk is short-lived. Caller holds
// s.mu.
func (s *oracleTracker) extendUntracked(x uint64) uint64 {
	for x+1 < s.nextSeq {
		if s.pending[x+1] {
			return x
		}
		if _, ok := s.lookupRun(x + 1); ok {
			return x
		}
		x++
	}
	return x
}

// Committed returns the last computed committed prefix point and exceptions.
func (s *oracleTracker) Committed() (uint64, []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed, append([]uint64(nil), s.exceptions...)
}

// CommitStatus is what a wait for seq's commit needs, under one lock: the
// committed prefix; how many exceptions at or below seq can still resolve
// (abandoned ones cannot, and are not counted); and, under strict DPR, the
// first abandoned operation at or below seq (0 if none), which the prefix
// will never pass.
func (s *oracleTracker) CommitStatus(seq uint64) (prefix uint64, open int, hole uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.exceptions {
		if e > seq {
			break
		}
		if !s.isAbandoned(e) {
			open++
		}
	}
	if !s.relaxed && len(s.abandoned) > 0 && s.abandoned[0] <= seq {
		hole = s.abandoned[0]
	}
	return s.committed, open, hole
}

// InFlight returns the number of started but uncompleted operations.
func (s *oracleTracker) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// NextSeq returns the sequence number the next Begin will assign.
func (s *oracleTracker) NextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq
}

// OnFailure transitions the session to world-line wl after a failure whose
// recovered state is cut (§4.2). It computes the surviving prefix: every
// completed operation whose token lies inside the cut survives; operations
// beyond the cut, and operations that were in flight, are lost. The session's
// version clock regresses to the cut so the progress rule resumes cleanly.
// Returns a SurvivalError describing the outcome; the caller surfaces it to
// the application. Lost operations are dropped from tracking; in-flight
// operations are resolved as lost.
//
// A lossless transition returns nil: when the session had nothing in flight
// and every completed operation lies inside the recovered cut — the common
// case for a session that issued nothing after its last commit — nothing was
// erased, so there is no survival outcome for the application to handle. The
// session still adopts the new world-line.
func (s *oracleTracker) OnFailure(wl WorldLine, cut Cut) *SurvivalError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wl <= s.worldLine {
		return nil // stale notification
	}
	s.worldLine = wl
	hadPending := len(s.pending)+len(s.abandoned) != 0
	prevLatest := s.latestSeq

	surviving := s.committed
	var exceptions []uint64
	if s.relaxed {
		// Largest completed-and-recovered op; pending and lost ops inside
		// become exceptions.
		for i := range s.runs {
			if s.runs[i].end > surviving && cut.Includes(s.runs[i].tok) {
				surviving = s.runs[i].end
			}
		}
		exceptions = s.exceptionsBelow(surviving, cut)
	} else {
		for next := surviving + 1; next < s.nextSeq; next++ {
			t, ok := s.lookupRun(next)
			if !ok || !cut.Includes(t) {
				break
			}
			surviving = next
		}
	}

	// Drop everything not surviving; those operations are gone from the new
	// world-line and the application must reissue them if desired. The
	// pending map is released outright (it is lazily reallocated on the next
	// Begin) so a failed-over idle session does not retain its high-water
	// footprint.
	s.pending, s.abandoned = nil, nil
	kept := s.runs[:0]
	for _, r := range s.runs {
		if !cut.Includes(r.tok) || r.start > surviving {
			continue
		}
		if r.end > surviving {
			r.end = surviving
		}
		kept = append(kept, r)
	}
	s.runs = kept
	if len(s.runs) == 0 {
		s.runs = nil
	}
	s.nextSeq = surviving + 1
	if s.committed > surviving {
		s.committed = surviving
	}
	// Recompute the latest-completed marker over the surviving tokens
	// (rare path: failures only).
	s.latestSeq, s.latestTok = 0, Token{}
	if len(s.runs) > 0 {
		last := s.runs[len(s.runs)-1]
		s.latestSeq, s.latestTok = last.end, last.tok
	}
	// Vs regresses to the recovered frontier: max cut position this session
	// could have observed. Using the global max keeps monotonicity.
	if maxCut := cut.Max(); s.vs > maxCut {
		s.vs = maxCut
	}
	if !hadPending && len(exceptions) == 0 && surviving >= prevLatest {
		return nil // lossless: every operation the session ever completed survives
	}
	return &SurvivalError{WorldLine: wl, SurvivingPrefix: surviving, Exceptions: exceptions}
}
