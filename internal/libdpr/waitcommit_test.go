package libdpr_test

import (
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

	if err := s.WaitCommit(64, 50*time.Millisecond, nil); err == nil {
		t.Fatal("WaitCommit(64) returned nil while seqs 9..16 are uncommitted exceptions")
	}
	if err := s.WaitCommit(12, 50*time.Millisecond, nil); err == nil {
		t.Fatal("WaitCommit(12) returned nil for a seq inside the exception hole")
	}
	if err := s.WaitCommit(8, time.Second, nil); err != nil {
		t.Fatalf("seq 8 sits below the hole and is committed: %v", err)
	}

	// The hole closes once the cut covers the late version.
	meta.setCut(core.Cut{1: 1, 2: 5})
	if err := s.WaitCommit(64, 5*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	if p, exc := s.Committed(); p != 64 || len(exc) != 0 {
		t.Fatalf("prefix %d exceptions %v after the hole closed", p, exc)
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
		s.Abandon(libdpr.BatchHeader{SeqStart: 5, NumOps: 4})
		if got := s.ProbeTarget(); got != 4 {
			t.Fatalf("relaxed=%v: probe at %d after an abandon of seqs 5..8, want 4", relaxed, got)
		}
		s.Abandon(lost)
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
