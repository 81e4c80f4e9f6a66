package libdpr_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/obs"
)

// cutOnlyMeta is a metadata service that answers State with a settable cut
// on world-line 0; a session's commit tracking calls nothing else.
type cutOnlyMeta struct {
	metadata.Service
	mu     sync.Mutex
	cut    core.Cut
	states int // State calls answered
}

func (m *cutOnlyMeta) State() (core.Cut, core.Version, core.WorldLine, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.states++
	return m.cut.Clone(), 0, 0, nil
}

func (m *cutOnlyMeta) stateCalls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.states
}

func (m *cutOnlyMeta) setCut(c core.Cut) {
	m.mu.Lock()
	m.cut = c
	m.mu.Unlock()
}

// TestWaitCommitHonoursExceptionHoles pins the commit contract under relaxed
// DPR: a sequence number is committed iff it is at or below the prefix and
// not an exception. The shape is the one TestCommitProgress used to flake on
// (prefix 64, exceptions 9..16): eight batches, the second executed in a
// version the cut does not cover yet.
func TestWaitCommitHonoursExceptionHoles(t *testing.T) {
	meta := &cutOnlyMeta{}
	s, err := libdpr.NewSession(meta, true)
	if err != nil {
		t.Fatal(err)
	}
	covered := []core.Version{1, 1, 1, 1, 1, 1, 1, 1}
	late := []core.Version{5, 5, 5, 5, 5, 5, 5, 5}
	tr := s.Tracker()
	for b := 0; b < 8; b++ {
		start := tr.BeginBatch(8)
		if b == 1 {
			tr.CompleteBatch(0, start, 2, late)
		} else {
			tr.CompleteBatch(0, start, 1, covered)
		}
	}
	meta.setCut(core.Cut{1: 1, 2: 4})
	if _, err := s.RefreshCommit(); err != nil {
		t.Fatal(err)
	}
	p, exc := s.Committed()
	if p != 64 || len(exc) != 8 || exc[0] != 9 || exc[7] != 16 {
		t.Fatalf("setup: prefix %d exceptions %v, want prefix 64 with exceptions 9..16", p, exc)
	}

	if err := s.WaitCommit(64, 50*time.Millisecond); err == nil {
		t.Fatal("WaitCommit(64) returned nil while seqs 9..16 are uncommitted exceptions")
	}
	if err := s.WaitCommit(12, 50*time.Millisecond); err == nil {
		t.Fatal("WaitCommit(12) returned nil for a seq inside the exception hole")
	}
	if err := s.WaitCommit(8, time.Second); err != nil {
		t.Fatalf("seq 8 sits below the hole and is committed: %v", err)
	}

	// The hole closes once the cut covers the late version.
	meta.setCut(core.Cut{1: 1, 2: 5})
	if err := s.WaitCommit(64, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if p, exc := s.Committed(); p != 64 || len(exc) != 0 {
		t.Fatalf("prefix %d exceptions %v after the hole closed", p, exc)
	}
}

// TestWaitCommitPassesAbandoned: a batch the transport gave up on is a hole
// that will never close. Under relaxed DPR WaitCommit waits for everything at
// or below seq to be committed or abandoned — a parked wait is woken by the
// abandon itself — and Committed keeps listing the hole; under strict DPR the
// wait fails at once, naming it, instead of timing out.
func TestWaitCommitPassesAbandoned(t *testing.T) {
	issue := func(relaxed bool) (*libdpr.Session, libdpr.BatchHeader) {
		meta := &cutOnlyMeta{}
		s, err := libdpr.NewSession(meta, relaxed)
		if err != nil {
			t.Fatal(err)
		}
		var lost libdpr.BatchHeader
		for b := 0; b < 3; b++ {
			h, err := s.NextBatch(4)
			if err != nil {
				t.Fatal(err)
			}
			if b == 1 {
				lost = h // seqs 5..8: no reply ever comes
				continue
			}
			if err := s.CompleteBatch(1, h, libdpr.BatchReply{Versions: []core.Version{1, 1, 1, 1}}); err != nil {
				t.Fatal(err)
			}
		}
		meta.setCut(core.Cut{1: 1})
		return s, lost
	}

	s, lost := issue(true)
	if err := s.WaitCommit(12, 50*time.Millisecond); err == nil {
		t.Fatal("WaitCommit(12) returned nil while seqs 5..8 are still in flight")
	}
	done := make(chan error, 1)
	go func() { done <- s.WaitCommit(12, 10*time.Second) }()
	time.Sleep(20 * time.Millisecond) // let it park (harmless if it has not)
	s.AbandonBatch(lost)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitCommit(12) after the abandon: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitCommit(12) still parked after the hole was abandoned")
	}
	if p, exc := s.Committed(); p != 12 || len(exc) != 4 || exc[0] != 5 || exc[3] != 8 {
		t.Fatalf("prefix %d exceptions %v, want 12 with 5..8 still listed: abandoned is not committed", p, exc)
	}
	if n := s.Tracker().InFlight(); n != 0 {
		t.Fatalf("InFlight %d after the abandon, want 0", n)
	}

	s, lost = issue(false)
	s.AbandonBatch(lost)
	var hole *core.AbandonedError
	if err := s.WaitCommit(12, 5*time.Second); !errors.As(err, &hole) || hole.Seq != 5 {
		t.Fatalf("strict WaitCommit(12) = %v, want an AbandonedError at seq 5", err)
	}
	if err := s.WaitCommit(4, 5*time.Second); err != nil {
		t.Fatalf("strict WaitCommit(4), below the hole: %v", err)
	}
}

// TestAbandonDropsTheCommitProbe: the commit-latency probe of a batch the
// transport gave up on is dropped with it. Left armed it never resolves under
// strict DPR — the prefix stops below the batch, and with one probe a session
// the metric went silent until the next failure — and under relaxed DPR it
// resolves when the prefix passes the hole, timing as a commit an operation
// that never committed.
func TestAbandonDropsTheCommitProbe(t *testing.T) {
	latency := obs.Default.Histogram("dpr_client_commit_latency_seconds", "")
	for _, relaxed := range []bool{false, true} {
		meta := &cutOnlyMeta{}
		s, err := libdpr.NewSession(meta, relaxed)
		if err != nil {
			t.Fatal(err)
		}
		lost, err := s.NextBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.ProbeTarget(); got != 4 {
			t.Fatalf("relaxed=%v: probe at %d after the first batch, want 4", relaxed, got)
		}
		// An abandon of other operations leaves the probe alone.
		s.AbandonBatch(libdpr.BatchHeader{SeqStart: 5, NumOps: 4})
		if got := s.ProbeTarget(); got != 4 {
			t.Fatalf("relaxed=%v: probe at %d after an abandon of seqs 5..8, want 4", relaxed, got)
		}
		s.AbandonBatch(lost)
		if got := s.ProbeTarget(); got != 0 {
			t.Fatalf("relaxed=%v: probe still at %d after its batch was abandoned", relaxed, got)
		}
		before := latency.Count()
		meta.setCut(core.Cut{1: 1})
		if _, err := s.RefreshCommit(); err != nil { // relaxed: the prefix passes the hole
			t.Fatal(err)
		}
		if n := latency.Count() - before; n != 0 {
			t.Fatalf("relaxed=%v: %d commit latencies recorded for an abandoned batch", relaxed, n)
		}
		// The next batch is probed again: the metric is not silent.
		if _, err := s.NextBatch(4); err != nil {
			t.Fatal(err)
		}
		if got := s.ProbeTarget(); got != 8 {
			t.Fatalf("relaxed=%v: probe at %d after the next batch, want 8", relaxed, got)
		}
	}
}

// TestWaitCommitWakesOnFold: WaitCommit is woken by the fold of a cut into the
// session, not by polling the finder. A cut that arrives by ObserveCut (a
// pushed frame) ends a long wait within a few milliseconds and after a handful
// of finder calls — the backstop's, at an interval doubling from 1 ms up to
// its period — where a 1 ms poll made one per millisecond. With no push at all
// the backstop still finds the cut at the finder, within one of its periods.
func TestWaitCommitWakesOnFold(t *testing.T) {
	const slack = 25 * time.Millisecond
	issue := func(t *testing.T) (*cutOnlyMeta, *libdpr.Session, uint64) {
		meta := &cutOnlyMeta{}
		s, err := libdpr.NewSession(meta, true)
		if err != nil {
			t.Fatal(err)
		}
		tr := s.Tracker()
		start := tr.BeginBatch(4)
		tr.CompleteBatch(0, start, 1, []core.Version{1, 1, 1, 1})
		return meta, s, start + 3
	}
	wait := func(s *libdpr.Session, seq uint64) <-chan error {
		done := make(chan error, 1)
		go func() { done <- s.WaitCommit(seq, 5*time.Second) }()
		return done
	}

	t.Run("pushed cut", func(t *testing.T) {
		const parked = 200 * time.Millisecond
		meta, s, seq := issue(t)
		before := meta.stateCalls()
		done := wait(s, seq)
		select {
		case err := <-done:
			t.Fatalf("WaitCommit returned %v before any cut covered seq %d", err, seq)
		case <-time.After(parked):
		}
		folded := time.Now()
		s.ObserveCut(0, core.Cut{1: 1})
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if woke := time.Since(folded); woke > slack {
			t.Errorf("WaitCommit returned %v after the fold, want a wake-up, not the next poll", woke)
		}
		calls := meta.stateCalls() - before
		// 0, 1, 3, 7, 15, 31, 63 ms, then one per backstop period.
		if most := 7 + int(parked/libdpr.ManualHeartbeat); calls > most {
			t.Errorf("%d finder State calls during a %v wait, want at most %d (a doubling interval up to one per %v)",
				calls, parked, most, libdpr.ManualHeartbeat)
		}
	})

	t.Run("no push", func(t *testing.T) {
		meta, s, seq := issue(t)
		done := wait(s, seq)
		time.Sleep(20 * time.Millisecond)
		meta.setCut(core.Cut{1: 1})
		published := time.Now()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if took := time.Since(published); took > libdpr.ManualHeartbeat+slack {
			t.Errorf("WaitCommit returned %v after the finder published the cut, want within one %v backstop",
				took, libdpr.ManualHeartbeat)
		}
	})
}

// TestNextBatchNeverCrossesUnacknowledgedFailure: a failure a completion
// thread announces while the issuing thread is inside NextBatch must not hand
// that batch a header of the new world-line. The issuing thread digests the
// announcement at its next call and gets the SurvivalError; until the
// application acknowledges it, every NextBatch fails, and every successful one
// before belongs to the world-line the application knows about: sequence
// numbers of the new one are reissued ones, and using them early makes two
// live operations share a number.
func TestNextBatchNeverCrossesUnacknowledgedFailure(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{})
	if err := meta.RegisterWorker(1, "inproc-1"); err != nil {
		t.Fatal(err)
	}
	s, err := libdpr.NewSession(meta, true)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 300; round++ {
		before := s.Tracker().WorldLine()
		// One batch that never completes: the failure always loses something.
		if _, err := s.NextBatch(1); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		issued := make(chan error, 1)
		go func() { // the session's owner from here until it reports
			for {
				h, err := s.NextBatch(1)
				if err != nil {
					var surv *core.SurvivalError
					if !errors.As(err, &surv) {
						issued <- fmt.Errorf("round %d: NextBatch = %v, want a SurvivalError", round, err)
					} else if _, again := s.NextBatch(1); again == nil {
						issued <- fmt.Errorf("round %d: NextBatch succeeded with the failure unacknowledged", round)
					} else {
						issued <- nil
					}
					return
				}
				if h.WorldLine != before {
					issued <- fmt.Errorf("round %d: batch header on world-line %d before the failure of %d was acknowledged",
						round, h.WorldLine, before)
					return
				}
			}
		}()
		wl, _ := meta.BeginRecovery()
		meta.CompleteRecoveryFor(wl)
		s.AnnounceWorldLine(wl) // as a connection's read loop does
		if err := <-issued; err != nil {
			t.Fatal(err)
		}
		s.Acknowledge()
	}
}

// TestHandOffMergesLaggingCuts: cuts that reach the hand-off on one
// world-line between two of the owner's calls merge by per-worker maximum.
// Replies from different workers carry cut views that lag by different
// amounts, so one that posts last may be older than one before it; the
// owner folds what both said.
func TestHandOffMergesLaggingCuts(t *testing.T) {
	s, err := libdpr.NewSession(&cutOnlyMeta{}, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Tracker()
	first := tr.BeginBatch(1)
	tr.CompleteBatch(0, first, 1, []core.Version{3})
	second := tr.BeginBatch(1)
	tr.CompleteBatch(0, second, 2, []core.Version{5})
	s.ObserveCut(0, core.Cut{1: 3, 2: 4}) // a fresh view of worker 1
	s.ObserveCut(0, core.Cut{1: 2, 2: 5}) // a lagging one, fresh on worker 2
	if p, exc := s.Committed(); p != second || len(exc) != 0 {
		t.Fatalf("committed prefix %d, exceptions %v after the two cuts, want %d and none: what the first said of worker 1 was lost", p, exc, second)
	}
}
