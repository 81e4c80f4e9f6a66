package core

import (
	"math"
	"slices"
	"sort"
)

// SessionTracker maintains one client session's SessionOrder (§3): the
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
// A SessionTracker has one owner and takes no lock: a session is a logical
// thread, and what other goroutines learn for it (replies off a connection,
// pushed cuts, failure notices) reaches the tracker through its owner
// (libdpr.Session's hand-off, DESIGN.md "Session bookkeeping").
type SessionTracker struct {
	relaxed   bool
	worldLine WorldLine
	vs        Version // largest version observed (the Lamport clock of §3.2)

	nextSeq uint64 // next operation sequence number (first op gets 1)

	// A sequence number above the committed prefix that is not yet resolved is
	// in exactly one of three sets, each sorted, disjoint intervals (DESIGN.md
	// "Session bookkeeping"): pending — started, not completed, inFlight of
	// them; abandoned — given up on by the transport (Abandon); runs —
	// completed and not yet committed, with the capturing token. Sequence
	// numbers are dense and resolve almost in order, and a checkpoint interval's
	// batches share one (worker, version) token, so each set is a handful of
	// entries however many operations are outstanding. Committed runs are
	// pruned.
	pending, abandoned, runs seqSet
	inFlight                 int

	committed  uint64   // committed prefix point
	exceptions []uint64 // seqs <= committed that are NOT committed (relaxed); refilled in place
	shared     []uint64 // what Committed last handed out: an immutable copy of exceptions

	// latestSeq/latestTok track the most recently completed operation so the
	// next batch's dependency is O(1).
	latestSeq uint64
	latestTok Token

	// The cut the prefix was last advanced to — entries, world-line and, if its
	// sender named one, generation — so that a cut arriving again (every reply
	// carries one) costs a comparison, not an advance (CompleteAndFold).
	foldedCut []cutEntry
	foldedWL  WorldLine
	foldedGen uint64
}

// tokenRun records that operations start..end (inclusive) were all captured
// by token tok; in pending and abandoned, which have no token yet, it is zero.
type tokenRun struct {
	start, end uint64
	tok        Token
}

type cutEntry struct {
	w WorkerID
	v Version
}

// seqSet is a set of sequence numbers as sorted, disjoint intervals;
// neighbours with one token are joined.
type seqSet []tokenRun

// search returns the index of the first interval ending at or after seq. The
// oldest outstanding operations resolve first, so the front is tried first.
func (s seqSet) search(seq uint64) int {
	if len(s) == 0 || s[0].end >= seq {
		return 0
	}
	return sort.Search(len(s), func(i int) bool { return s[i].end >= seq })
}

func (s seqSet) contains(seq uint64) bool {
	i := s.search(seq)
	return i < len(s) && s[i].start <= seq
}

// next returns the lowest member above x, or limit if none lies below it.
func (s seqSet) next(x, limit uint64) uint64 {
	if i := s.search(x + 1); i < len(s) {
		return min(limit, max(s[i].start, x+1))
	}
	return limit
}

// add inserts start..end, none of which is a member, under token t.
func (s *seqSet) add(start, end uint64, t Token) {
	set := *s
	i := len(set)
	if i > 0 && set[i-1].end >= start { // out of order: concurrent connections
		i = set.search(start)
	}
	left := i > 0 && set[i-1].end+1 == start && set[i-1].tok == t
	right := i < len(set) && set[i].start == end+1 && set[i].tok == t
	switch {
	case left && right:
		set[i-1].end = set[i].end
		*s = slices.Delete(set, i, i+1)
	case left:
		set[i-1].end = end
	case right:
		set[i].start = start
	case i == len(set): // the common case, a batch after the last: no shift
		*s = append(set, tokenRun{start, end, t})
	default:
		*s = slices.Insert(set, i, tokenRun{start, end, t})
	}
}

// cut removes the lowest run of members inside start..end and returns it; ok
// is false when the set has none there.
func (s *seqSet) cut(start, end uint64) (lo, hi uint64, ok bool) {
	set := *s
	i := set.search(start)
	if i == len(set) || set[i].start > end {
		return 0, 0, false
	}
	r := set[i]
	lo, hi = max(r.start, start), min(r.end, end)
	switch {
	case lo == r.start && hi == r.end && i == len(set)-1: // the last: no shift
		*s = set[:i]
	case lo == r.start && hi == r.end:
		*s = slices.Delete(set, i, i+1)
	case lo == r.start:
		set[i].start = hi + 1
	case hi == r.end:
		set[i].end = lo - 1
	default: // taken from the middle: the interval splits
		set[i].end = lo - 1
		*s = slices.Insert(set, i+1, tokenRun{hi + 1, r.end, r.tok})
	}
	return lo, hi, true
}

// NewSessionTracker returns a tracker starting at world-line wl.
// relaxed selects relaxed DPR semantics (the FASTER default).
// Its slices are allocated on first use, so a tracker that has not issued an
// operation costs only the struct itself.
func NewSessionTracker(wl WorldLine, relaxed bool) *SessionTracker {
	return &SessionTracker{
		relaxed:   relaxed,
		worldLine: wl,
		nextSeq:   1,
	}
}

// Relaxed reports whether the tracker uses relaxed DPR semantics.
func (s *SessionTracker) Relaxed() bool { return s.relaxed }

// WorldLine returns the session's current world-line.
func (s *SessionTracker) WorldLine() WorldLine {
	return s.worldLine
}

// VersionClock returns Vs, to be appended to outgoing requests (§3.2).
func (s *SessionTracker) VersionClock() Version {
	return s.vs
}

// Begin assigns the next sequence number to a new operation and records it
// as in flight.
func (s *SessionTracker) Begin() uint64 { return s.BeginBatch(1) }

// BeginBatch assigns n consecutive sequence numbers, returning the first.
func (s *SessionTracker) BeginBatch(n int) uint64 {
	return s.begin(n)
}

func (s *SessionTracker) begin(n int) uint64 {
	first := s.nextSeq
	if n > 0 {
		s.nextSeq += uint64(n)
		s.pending.add(first, s.nextSeq-1, Token{})
		s.inFlight += n
	}
	return first
}

// StartBatch is everything a new batch's header takes from the session, under
// one call: n sequence numbers (the first is returned), the version clock and
// the dependency — the token of the most recently completed operation, zero
// when there is none. wl is the world-line the caller issues on; ok is false,
// and nothing is assigned, if the session has left it (OnFailure reissues
// sequence numbers, and a batch must not be handed the new world-line's
// before its issuer has heard of the rollback).
func (s *SessionTracker) StartBatch(wl WorldLine, n int) (first uint64, vs Version, dep Token, ok bool) {
	if wl != s.worldLine {
		return 0, 0, Token{}, false
	}
	return s.begin(n), s.vs, s.latestTok, true
}

// Complete records that operation seq was executed and captured by token t,
// and advances Vs. Returns false if the operation was already resolved
// (e.g. discarded by a rollback that raced the response).
func (s *SessionTracker) Complete(seq uint64, t Token) bool {
	return s.complete(seq, t.Worker, []Version{t.Version}) == 1
}

// complete resolves the still-pending operations among seqStart+i as
// captured on worker w in versions[i] and returns how many there were: one
// search for the range, one run per stretch of equal versions (the range was
// pending, so it lies between two runs).
func (s *SessionTracker) complete(seqStart uint64, w WorkerID, versions []Version) (completed int) {
	end := seqStart + uint64(len(versions)) - 1
	for from := seqStart; from <= end; {
		lo, hi, ok := s.pending.cut(from, end)
		if !ok {
			break
		}
		completed += int(hi - lo + 1)
		for from = lo; from <= hi; {
			v := versions[from-seqStart]
			last := from
			for last < hi && versions[last+1-seqStart] == v {
				last++
			}
			s.runs.add(from, last, Token{Worker: w, Version: v})
			s.vs = max(s.vs, v)
			from = last + 1
		}
		if hi >= s.latestSeq {
			s.latestSeq, s.latestTok = hi, Token{Worker: w, Version: versions[hi-seqStart]}
		}
	}
	s.inFlight -= completed
	return completed
}

// CompleteBatch records n consecutive completions — operations seqStart+i
// captured on worker w in versions[i].
// It is the batched form of Complete for the per-batch hot path; versions is
// not retained. wl is the world-line the reply was produced on: a reply from
// an older world-line describes executions a rollback has since erased, and
// recording it here could resolve a reused sequence number with a dead token,
// so it is dropped.
func (s *SessionTracker) CompleteBatch(wl WorldLine, seqStart uint64, w WorkerID, versions []Version) {
	s.CompleteAndFold(wl, seqStart, w, versions, nil, 0)
}

// CompleteAndFold is CompleteBatch and then
// AdvanceCommitted to the cut the reply carried (none if empty) — unless that
// is the cut the prefix was advanced to last, which a worker's cut usually is;
// folded reports whether it advanced. gen, when non-zero, names the sender's
// immutable snapshot of (wl, cut): two cuts with one generation are the same
// cut, and a co-located reply is recognised by it without touching the map;
// with a zero generation the entries are compared. cut is not retained.
// Without versions it folds a cut that came on its own (a push).
func (s *SessionTracker) CompleteAndFold(wl WorldLine, seqStart uint64, w WorkerID, versions []Version, cut Cut, gen uint64) (prefix uint64, folded bool) {
	if wl != s.worldLine {
		return s.committed, false
	}
	if len(versions) > 0 {
		s.complete(seqStart, w, versions)
	}
	if gen != 0 && gen == s.foldedGen && s.foldedWL == s.worldLine {
		return s.committed, false // the cut folded last, known by its generation without reading it
	}
	if len(cut) == 0 || s.isFolded(cut, gen) {
		return s.committed, false
	}
	s.advance(cut)
	return s.committed, true
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
func (s *SessionTracker) Abandon(wl WorldLine, seqStart uint64, n int) (abandoned int) {
	if wl != s.worldLine || n <= 0 {
		return 0
	}
	end := seqStart + uint64(n) - 1
	for from := seqStart; from <= end; {
		lo, hi, ok := s.pending.cut(from, end)
		if !ok {
			break
		}
		s.abandoned.add(lo, hi, Token{})
		abandoned += int(hi - lo + 1)
		from = hi + 1
	}
	s.inFlight -= abandoned
	return abandoned
}

// ObserveVersion folds a worker-reported version into Vs
// (Vs = max(Vs, v), §3.2).
func (s *SessionTracker) ObserveVersion(v Version) {
	s.vs = max(s.vs, v)
}

// LatestToken returns the token of the most recently completed operation;
// it is the dependency the next request carries to a different worker.
func (s *SessionTracker) LatestToken() (Token, bool) {
	return s.latestTok, s.latestSeq != 0
}

// AdvanceCommitted folds a DPR-cut observed on world-line wl into the
// session, advancing the committed prefix point. Returns the new prefix point
// and, under relaxed DPR, the exception list of sequence numbers at or below
// the point that are not yet committed (still pending, abandoned, or captured
// in a version beyond the cut); the list is the tracker's own, valid until the
// prefix is next advanced.
//
// The cut is applied only if wl matches the session's current world-line,
// checked first: version numbers restart across world-lines, so
// a cut from world-line n applied after an OnFailure moved the
// session to n+1 would commit erased operations whose tokens merely collide
// numerically with the new world-line's cut.
//
// Strict mode: the prefix stops at the first operation that is pending or
// whose token is outside the cut.
//
// Relaxed mode: the prefix is the largest point such that every *completed*
// operation at or below it has its token inside the cut; operations still
// pending are skipped and reported as exceptions until they resolve.
func (s *SessionTracker) AdvanceCommitted(wl WorldLine, cut Cut) (uint64, []uint64) {
	if wl == s.worldLine {
		s.isFolded(cut, 0) // remembers it
		s.advance(cut)
	}
	return s.committed, s.exceptions
}

// isFolded reports whether cut, observed on the session's world-line, is the
// one the prefix was last advanced to, and remembers it if not.
func (s *SessionTracker) isFolded(cut Cut, gen uint64) bool {
	same := s.foldedWL == s.worldLine
	if same && (gen == 0 || gen != s.foldedGen) {
		same = len(cut) == len(s.foldedCut)
		for i := 0; same && i < len(s.foldedCut); i++ {
			v, has := cut[s.foldedCut[i].w]
			same = has && v == s.foldedCut[i].v
		}
	}
	if !same {
		s.foldedCut = s.foldedCut[:0]
		for w, v := range cut {
			s.foldedCut = append(s.foldedCut, cutEntry{w, v})
		}
	}
	s.foldedWL, s.foldedGen = s.worldLine, gen
	return same
}

// advance advances the committed prefix to cut. The caller has
// checked the world-line.
func (s *SessionTracker) advance(cut Cut) {
	p := s.committed
	if s.relaxed {
		// The relaxed prefix point is the highest completed operation whose
		// token is inside the cut (skipped operations become exceptions),
		// extended over untracked seqs — already committed or resolved as
		// rolled back by OnFailure — that sit directly after it. A whole run
		// is in or out of the cut.
		var high uint64
		for i := range s.runs {
			if s.runs[i].end > p && cut.Includes(s.runs[i].tok) {
				high = s.runs[i].end
			}
		}
		p = s.extendUntracked(max(s.extendUntracked(p), high))
		s.exceptions = s.exceptionsBelow(s.exceptions[:0], p, cut)
	} else {
		// Strict mode stops below the first operation that is pending,
		// abandoned or captured outside the cut; what is in none of the sets
		// is already committed (rolled-back operations are resolved by
		// OnFailure before any advance).
		stop := s.abandoned.next(p, s.pending.next(p, s.nextSeq))
		for i := s.runs.search(p + 1); i < len(s.runs) && s.runs[i].start < stop; i++ {
			if !cut.Includes(s.runs[i].tok) {
				stop = max(s.runs[i].start, p+1)
			}
		}
		p = max(stop, p+1) - 1
	}
	s.committed = p
	// Prune committed tokens (they can never be needed again).
	kept := s.runs[:0]
	for _, r := range s.runs {
		if cut.Includes(r.tok) {
			if r.end <= p {
				continue
			}
			r.start = max(r.start, p+1)
		}
		kept = append(kept, r)
	}
	s.runs = kept
	if len(kept) == 0 && cap(kept) > 64 {
		// A session gone quiet should not hold a burst's array; what a steady
		// one refills between two cuts stays, so a fold allocates nothing.
		s.runs = nil
	}
}

// exceptionsBelow appends to dst, ascending, the operations at or below p that
// are not inside cut — pending, abandoned, or completed with a token beyond it
// — merging the three sorted sets.
func (s *SessionTracker) exceptionsBelow(dst []uint64, p uint64, cut Cut) []uint64 {
	var pi, ai, ri int
	for {
		for ri < len(s.runs) && cut.Includes(s.runs[ri].tok) {
			ri++
		}
		next, from := tokenRun{start: math.MaxUint64}, &pi
		if pi < len(s.pending) {
			next = s.pending[pi]
		}
		if ai < len(s.abandoned) && s.abandoned[ai].start < next.start {
			next, from = s.abandoned[ai], &ai
		}
		if ri < len(s.runs) && s.runs[ri].start < next.start {
			next, from = s.runs[ri], &ri
		}
		if next.start > p {
			return dst
		}
		for seq := next.start; seq <= min(next.end, p); seq++ {
			dst = append(dst, seq)
		}
		*from++
	}
}

// extendUntracked advances x over the seqs directly after it that are neither
// pending nor tracked in a run — operations already committed, abandoned, or
// resolved as rolled back.
func (s *SessionTracker) extendUntracked(x uint64) uint64 {
	stop := s.pending.next(x, s.nextSeq)
	if i := s.runs.search(x + 1); i < len(s.runs) {
		stop = min(stop, max(s.runs[i].start, x+1))
	}
	return max(stop, x+1) - 1
}

// Committed returns the last computed committed prefix point and exceptions.
// The exception slice is shared by every call until the exceptions change, so
// that a caller polling a quiet session allocates nothing: it must not be
// modified.
func (s *SessionTracker) Committed() (uint64, []uint64) {
	if !slices.Equal(s.shared, s.exceptions) {
		s.shared = append([]uint64(nil), s.exceptions...)
	}
	return s.committed, s.shared
}

// CommitStatus is what a wait for seq's commit needs, in one call: the
// committed prefix; how many exceptions at or below seq can still resolve
// (abandoned ones cannot, and are not counted); and, under strict DPR, the
// first abandoned operation at or below seq (0 if none), which the prefix
// will never pass.
func (s *SessionTracker) CommitStatus(seq uint64) (prefix uint64, open int, hole uint64) {
	for _, e := range s.exceptions {
		if e > seq {
			break
		}
		if !s.abandoned.contains(e) {
			open++
		}
	}
	if !s.relaxed && len(s.abandoned) > 0 && s.abandoned[0].start <= seq {
		hole = s.abandoned[0].start
	}
	return s.committed, open, hole
}

// InFlight returns the number of started but uncompleted operations.
func (s *SessionTracker) InFlight() int {
	return s.inFlight
}

// NextSeq returns the sequence number the next Begin will assign.
func (s *SessionTracker) NextSeq() uint64 {
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
// case for a session that issued nothing after its last commit, or whose
// completed operations all made the recovered cut — nothing was erased, so
// there is no survival outcome for the application to handle, and a
// SurvivalError would make it acknowledge a rollback that cost it nothing.
// The session still adopts the new world-line.
func (s *SessionTracker) OnFailure(wl WorldLine, cut Cut) *SurvivalError {
	if wl <= s.worldLine {
		return nil // stale notification
	}
	s.worldLine = wl
	hadPending := s.inFlight != 0 || len(s.abandoned) != 0
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
		exceptions = s.exceptionsBelow(nil, surviving, cut)
	} else {
		for i := s.runs.search(surviving + 1); i < len(s.runs) && s.runs[i].start <= surviving+1 && cut.Includes(s.runs[i].tok); i++ {
			surviving = s.runs[i].end
		}
	}

	// Drop everything not surviving; those operations are gone from the new
	// world-line and the application must reissue them if desired. The
	// interval sets are released outright so a failed-over idle session does
	// not retain its high-water footprint.
	s.pending, s.abandoned, s.inFlight = nil, nil, 0
	kept := s.runs[:0]
	for _, r := range s.runs {
		if !cut.Includes(r.tok) || r.start > surviving {
			continue
		}
		r.end = min(r.end, surviving)
		kept = append(kept, r)
	}
	s.runs = kept
	if len(s.runs) == 0 {
		s.runs = nil
	}
	s.nextSeq = surviving + 1
	s.committed = min(s.committed, surviving)
	// Recompute the latest-completed marker over the surviving tokens
	// (rare path: failures only).
	s.latestSeq, s.latestTok = 0, Token{}
	if len(s.runs) > 0 {
		last := s.runs[len(s.runs)-1]
		s.latestSeq, s.latestTok = last.end, last.tok
	}
	// Vs regresses to the recovered frontier: max cut position this session
	// could have observed. Using the global max keeps monotonicity.
	s.vs = min(s.vs, cut.Max())
	if !hadPending && len(exceptions) == 0 && surviving >= prevLatest {
		return nil // lossless: every operation the session ever completed survives
	}
	return &SurvivalError{WorldLine: wl, SurvivingPrefix: surviving, Exceptions: exceptions}
}
