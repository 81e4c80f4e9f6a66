package core

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"dpr/internal/allocpin"
)

func TestSessionStrictCommitPrefix(t *testing.T) {
	s := NewSessionTracker(0, false)
	s1 := s.Begin()
	s2 := s.Begin()
	s3 := s.Begin()
	s.Complete(s1, tok(1, 1))
	s.Complete(s2, tok(2, 1))
	s.Complete(s3, tok(1, 2))
	p, exc := s.AdvanceCommitted(0, Cut{1: 1})
	if p != 1 || len(exc) != 0 {
		t.Fatalf("expected prefix 1, got %d (%v)", p, exc)
	}
	p, _ = s.AdvanceCommitted(0, Cut{1: 2, 2: 1})
	if p != 3 {
		t.Fatalf("expected prefix 3, got %d", p)
	}
}

func TestSessionStrictStopsAtPending(t *testing.T) {
	s := NewSessionTracker(0, false)
	s1 := s.Begin()
	s2 := s.Begin()
	s3 := s.Begin()
	s.Complete(s1, tok(1, 1))
	// s2 is still pending.
	s.Complete(s3, tok(1, 1))
	p, _ := s.AdvanceCommitted(0, Cut{1: 5})
	if p != 1 {
		t.Fatalf("strict prefix must stop at pending op, got %d", p)
	}
	s.Complete(s2, tok(1, 1))
	p, _ = s.AdvanceCommitted(0, Cut{1: 5})
	if p != 3 {
		t.Fatalf("prefix should advance after completion, got %d", p)
	}
}

func TestSessionRelaxedSkipsPending(t *testing.T) {
	s := NewSessionTracker(0, true)
	s1 := s.Begin()
	s2 := s.Begin() // will go PENDING (e.g. remote op)
	s3 := s.Begin()
	s.Complete(s1, tok(1, 1))
	s.Complete(s3, tok(1, 1))
	p, exc := s.AdvanceCommitted(0, Cut{1: 1})
	if p != 3 {
		t.Fatalf("relaxed prefix should skip pending, got %d", p)
	}
	if len(exc) != 1 || exc[0] != s2 {
		t.Fatalf("pending op must be listed as exception, got %v", exc)
	}
	// Once the pending op resolves inside the cut, the exception clears.
	s.Complete(s2, tok(2, 1))
	p, exc = s.AdvanceCommitted(0, Cut{1: 1, 2: 1})
	if p != 3 || len(exc) != 0 {
		t.Fatalf("exception should clear, got prefix %d exc %v", p, exc)
	}
}

// TestSessionAbandonRelaxed: an abandoned operation leaves InFlight, never
// commits (it stays an exception for as long as the prefix covers it), and no
// longer holds a commit wait — whether it is the session's last operation or
// sits in the middle.
func TestSessionAbandonRelaxed(t *testing.T) {
	for _, lost := range []uint64{3, 2} {
		s := NewSessionTracker(0, true)
		for i := 0; i < 3; i++ {
			s.Begin()
		}
		for seq := uint64(1); seq <= 3; seq++ {
			if seq != lost {
				s.Complete(seq, tok(1, 1))
			}
		}
		s.AdvanceCommitted(0, Cut{1: 1})
		if _, open, _ := s.CommitStatus(3); lost == 2 && open != 1 {
			t.Fatalf("lost=%d: a pending exception must hold the wait, open=%d", lost, open)
		}
		s.Abandon(0, lost, 1)
		if n := s.InFlight(); n != 0 {
			t.Fatalf("lost=%d: InFlight %d after Abandon, want 0", lost, n)
		}
		p, exc := s.AdvanceCommitted(0, Cut{1: 1})
		if p != 3 || len(exc) != 1 || exc[0] != lost {
			t.Fatalf("lost=%d: prefix %d exceptions %v, want 3 and [%d]", lost, p, exc, lost)
		}
		if p, open, hole := s.CommitStatus(3); p != 3 || open != 0 || hole != 0 {
			t.Fatalf("lost=%d: CommitStatus(3) = %d, %d, %d; an abandoned exception must not hold the wait", lost, p, open, hole)
		}
		// A late reply does not resurrect it, and later cuts keep listing it.
		if s.Complete(lost, tok(1, 1)) {
			t.Fatalf("lost=%d: Complete resolved an abandoned operation", lost)
		}
		if _, exc := s.AdvanceCommitted(0, Cut{1: 9}); len(exc) != 1 || exc[0] != lost {
			t.Fatalf("lost=%d: exceptions %v after a later cut, want [%d]", lost, exc, lost)
		}
		if _, ok := s.Archive(); ok {
			t.Fatalf("lost=%d: a session with an abandoned operation archived, dropping the exception", lost)
		}
	}
}

// TestSessionAbandonStrict: under strict DPR the prefix stops below an
// abandoned operation, and a wait at or past it is told so.
func TestSessionAbandonStrict(t *testing.T) {
	s := NewSessionTracker(0, false)
	for i := 0; i < 3; i++ {
		s.Begin()
	}
	s.Complete(1, tok(1, 1))
	s.Complete(3, tok(1, 1))
	s.Abandon(0, 2, 1)
	if p, _ := s.AdvanceCommitted(0, Cut{1: 1}); p != 1 {
		t.Fatalf("strict prefix %d passed an abandoned operation", p)
	}
	if _, _, hole := s.CommitStatus(3); hole != 2 {
		t.Fatalf("CommitStatus(3) hole %d, want 2", hole)
	}
	if _, _, hole := s.CommitStatus(1); hole != 0 {
		t.Fatalf("CommitStatus(1) hole %d: seq 1 sits below the abandoned operation", hole)
	}
}

// TestSessionAbandonAcrossRollback: Abandon is world-line-checked, because a
// rollback reissues sequence numbers; and the rollback resolves an abandoned
// operation like a pending one — an exception of the SurvivalError if the
// surviving prefix covers it, forgotten (its number reissued) if not.
func TestSessionAbandonAcrossRollback(t *testing.T) {
	s := NewSessionTracker(0, true)
	for i := 0; i < 4; i++ {
		s.Begin()
	}
	s.Complete(1, tok(1, 1))
	s.Complete(3, tok(1, 1))
	s.Abandon(0, 2, 1)
	s.Abandon(0, 4, 1)
	surv := s.OnFailure(1, Cut{1: 1})
	if surv == nil || surv.SurvivingPrefix != 3 || len(surv.Exceptions) != 1 || surv.Exceptions[0] != 2 {
		t.Fatalf("survival %+v, want prefix 3 with exception [2]", surv)
	}
	if seq := s.Begin(); seq != 4 {
		t.Fatalf("seq %d reissued after the rollback, want 4", seq)
	}
	s.Abandon(0, 4, 1) // an error from the old world-line, racing the rollback
	if n := s.InFlight(); n != 1 {
		t.Fatalf("a stale Abandon resolved the new world-line's seq 4 (InFlight %d)", n)
	}
	s.Complete(4, tok(1, 2))
	if p, exc := s.AdvanceCommitted(1, Cut{1: 2}); p != 4 || len(exc) != 0 {
		t.Fatalf("prefix %d exceptions %v on the new world-line, want 4 and none", p, exc)
	}
}

func TestSessionVersionClock(t *testing.T) {
	s := NewSessionTracker(0, false)
	if s.VersionClock() != 0 {
		t.Fatal("fresh session must have Vs=0")
	}
	seq := s.Begin()
	s.Complete(seq, tok(3, 7))
	if s.VersionClock() != 7 {
		t.Fatalf("Vs should be 7, got %d", s.VersionClock())
	}
	s.ObserveVersion(5) // lower version must not regress the clock
	if s.VersionClock() != 7 {
		t.Fatal("Vs must be monotone")
	}
	s.ObserveVersion(9)
	if s.VersionClock() != 9 {
		t.Fatal("Vs should advance to 9")
	}
}

func TestSessionFailureSurvival(t *testing.T) {
	s := NewSessionTracker(0, false)
	seqs := make([]uint64, 5)
	for i := range seqs {
		seqs[i] = s.Begin()
	}
	s.Complete(seqs[0], tok(1, 1))
	s.Complete(seqs[1], tok(2, 1))
	s.Complete(seqs[2], tok(1, 2)) // beyond the recovered cut
	s.Complete(seqs[3], tok(1, 1))
	// seqs[4] in flight at failure time.
	err := s.OnFailure(1, Cut{1: 1, 2: 1})
	if err == nil {
		t.Fatal("expected survival error")
	}
	if err.SurvivingPrefix != 2 {
		t.Fatalf("expected surviving prefix 2, got %d", err.SurvivingPrefix)
	}
	if !errors.Is(err, ErrRolledBack) {
		t.Fatal("survival error must unwrap to ErrRolledBack")
	}
	if s.WorldLine() != 1 {
		t.Fatal("session must adopt the new world-line")
	}
	// Sequence numbering resumes right after the surviving prefix.
	if got := s.Begin(); got != 3 {
		t.Fatalf("expected next seq 3, got %d", got)
	}
	// A duplicate (stale) failure notification is ignored.
	if dup := s.OnFailure(1, Cut{1: 1}); dup != nil {
		t.Fatal("duplicate failure notification must be ignored")
	}
}

func TestSessionFailureRelaxedExceptions(t *testing.T) {
	s := NewSessionTracker(0, true)
	a := s.Begin()
	b := s.Begin()
	c := s.Begin()
	s.Complete(a, tok(1, 1))
	// b stays pending.
	s.Complete(c, tok(1, 1))
	err := s.OnFailure(2, Cut{1: 1})
	if err == nil || err.SurvivingPrefix != 3 {
		t.Fatalf("relaxed survival should reach op 3, got %+v", err)
	}
	if len(err.Exceptions) != 1 || err.Exceptions[0] != b {
		t.Fatalf("pending op must appear in exceptions, got %v", err.Exceptions)
	}
}

func TestSessionCompleteUnknownSeq(t *testing.T) {
	s := NewSessionTracker(0, false)
	if s.Complete(42, tok(1, 1)) {
		t.Fatal("completing an unknown seq must return false")
	}
}

func TestWorldLineTrackerAdmit(t *testing.T) {
	w := NewWorldLineTracker(3)
	if err := w.Admit(3, time.Second); err != nil {
		t.Fatalf("matching world-line must be admitted: %v", err)
	}
	if err := w.Admit(2, time.Second); !errors.Is(err, ErrWorldLineMismatch) {
		t.Fatalf("stale world-line must be rejected: %v", err)
	}
	// Future world-line: delayed until the worker advances.
	done := make(chan error, 1)
	go func() { done <- w.Admit(4, time.Second) }()
	time.Sleep(5 * time.Millisecond)
	w.Advance(4, Cut{1: 1})
	if err := <-done; err != nil {
		t.Fatalf("request should be admitted after advance: %v", err)
	}
	if c, ok := w.RecoveredCut(4); !ok || c.Get(1) != 1 {
		t.Fatalf("recovered cut must be recorded, got %v ok=%v", c, ok)
	}
	// Timeout case.
	if err := w.Admit(9, 10*time.Millisecond); !errors.Is(err, ErrWorldLineMismatch) {
		t.Fatalf("expected timeout mismatch, got %v", err)
	}
	// Stale advance ignored.
	w.Advance(2, Cut{})
	if w.Current() != 4 {
		t.Fatal("stale advance must not regress world-line")
	}
}

// TestWorldLineAdmitWakesOnAdvance: a request from a newer world-line parked
// in Admit is admitted as soon as the worker advances into it, not at the next
// step of a poll. The median of five tries is held to 200 µs, a fifth of the
// millisecond poll this replaced.
func TestWorldLineAdmitWakesOnAdvance(t *testing.T) {
	var lat []time.Duration
	for i := 0; i < 5; i++ {
		w := NewWorldLineTracker(0)
		admitted := make(chan time.Time, 1)
		go func() {
			if err := w.Admit(1, time.Second); err != nil {
				t.Errorf("Admit: %v", err)
			}
			admitted <- time.Now()
		}()
		time.Sleep(2 * time.Millisecond) // let it park
		start := time.Now()
		w.Advance(1, Cut{})
		lat = append(lat, (<-admitted).Sub(start))
	}
	slices.Sort(lat)
	if lat[2] > 200*time.Microsecond {
		t.Fatalf("admission after Advance: median %v of %v; want ≤ 200µs", lat[2], lat)
	}
}

// TestWorldLineAdmitTimesOut: a newer world-line the worker never reaches is
// refused once the timeout has passed, not earlier; an advance short of it
// wakes the wait, which parks again.
func TestWorldLineAdmitTimesOut(t *testing.T) {
	w := NewWorldLineTracker(0)
	const timeout = 20 * time.Millisecond
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- w.Admit(3, timeout) }()
	time.Sleep(5 * time.Millisecond)
	w.Advance(2, Cut{})
	err := <-done
	if took := time.Since(start); !errors.Is(err, ErrWorldLineMismatch) || took < timeout || took > time.Second {
		t.Fatalf("Admit(3) at world-line 2: %v after %v; want ErrWorldLineMismatch after %v", err, took, timeout)
	}
}

// TestWorldLineAnomalyPrevented replays Figure 5: after a failure, a client
// that has recovered (world-line y) must not have its new operations erased
// by a StateObject that recovers later. The world-line check defers the
// client's operation until B has restored, so Restore can never erase a
// post-recovery operation.
func TestWorldLineAnomalyPrevented(t *testing.T) {
	b := NewWorldLineTracker(0) // StateObject B, still pre-recovery
	// Client already recovered into world-line 1 and issues Op 11 to B.
	admitted := make(chan error, 1)
	go func() { admitted <- b.Admit(1, time.Second) }()
	// B has not restored yet; the operation must not execute.
	select {
	case <-admitted:
		t.Fatal("operation executed against pre-recovery StateObject")
	case <-time.After(10 * time.Millisecond):
	}
	// B now restores (erasing world-line-0 suffix) and advances; only then
	// does Op 11 execute — in the post-recovery world, where it is safe.
	b.Advance(1, Cut{})
	if err := <-admitted; err != nil {
		t.Fatalf("operation should execute post-recovery: %v", err)
	}
}

// Property: committed prefix is monotone under growing cuts, and never
// includes an op whose token is outside the cut (strict mode).
func TestSessionPrefixMonotoneProperty(t *testing.T) {
	prop := func(versions []uint8) bool {
		if len(versions) == 0 {
			return true
		}
		if len(versions) > 64 {
			versions = versions[:64]
		}
		s := NewSessionTracker(0, false)
		toks := make(map[uint64]Token)
		for _, v := range versions {
			seq := s.Begin()
			tk := tok(1, Version(v%8)+1)
			s.Complete(seq, tk)
			toks[seq] = tk
		}
		var prev uint64
		for cutV := Version(1); cutV <= 8; cutV++ {
			p, _ := s.AdvanceCommitted(0, Cut{1: cutV})
			if p < prev {
				return false // prefix regressed
			}
			for seq := uint64(1); seq <= p; seq++ {
				if toks[seq].Version > cutV {
					return false // committed op outside cut
				}
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedZeroAlloc: a session polled for its commit state with nothing
// advancing in between hands out the same exception list, not a fresh copy
// per call; a change of the list is seen by the next call.
func TestCommittedZeroAlloc(t *testing.T) {
	s := NewSessionTracker(0, true)
	s1, s2, s3 := s.Begin(), s.Begin(), s.Begin()
	s.Complete(s1, tok(1, 1))
	s.Complete(s3, tok(1, 1))
	s.AdvanceCommitted(0, Cut{1: 1})
	p, exc := s.Committed()
	if p != 3 || !slices.Equal(exc, []uint64{s2}) {
		t.Fatalf("Committed() = %d %v, want 3 [%d]", p, exc, s2)
	}
	allocpin.Zero(t, "SessionTracker.Committed", 1000, func() { p, exc = s.Committed() })
	s.Complete(s2, tok(2, 1))
	s.AdvanceCommitted(0, Cut{1: 1, 2: 1})
	if p, exc := s.Committed(); p != 3 || len(exc) != 0 {
		t.Fatalf("after the exception resolved: Committed() = %d %v, want 3 []", p, exc)
	}
}
