package core

import (
	"testing"
	"time"
)

func TestHybridFinderWorkers(t *testing.T) {
	f := NewHybridFinder()
	f.AddWorker(1)
	f.AddWorker(2)
	f.Report(1, 1, nil)
	if f.MaxVersion() != 1 {
		t.Fatalf("vmax %d", f.MaxVersion())
	}
	f.Report(2, 1, nil)
	f.Report(1, 2, nil)
	if cut := f.CurrentCut(); cut.Get(1) != 2 || cut.Get(2) != 1 {
		t.Fatalf("cut after both workers reported: %v", cut)
	}
	if f.ExactGraphSize() != 0 {
		t.Fatalf("graph should be pruned to cut, size %d", f.ExactGraphSize())
	}
}

func TestWorldLineTrackerRecoveredCutMissing(t *testing.T) {
	w := NewWorldLineTracker(0)
	if _, ok := w.RecoveredCut(5); ok {
		t.Fatal("unknown world-line must not have a cut")
	}
}

func TestAdmitFastPathZeroTimeout(t *testing.T) {
	w := NewWorldLineTracker(2)
	// Matching world-line admits even with zero timeout (no blocking).
	if err := w.Admit(2, 0); err != nil {
		t.Fatal(err)
	}
	// Future world-line with zero timeout fails fast.
	start := time.Now()
	if err := w.Admit(3, 0); err == nil {
		t.Fatal("future world-line with zero timeout must fail")
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("zero timeout must not block long")
	}
}

func TestSessionTrackerBeginBatch(t *testing.T) {
	s := NewSessionTracker(0, true)
	first := s.BeginBatch(5)
	if first != 1 {
		t.Fatalf("first seq %d", first)
	}
	if s.NextSeq() != 6 {
		t.Fatalf("next seq %d", s.NextSeq())
	}
	if s.InFlight() != 5 {
		t.Fatalf("in flight %d", s.InFlight())
	}
	for i := uint64(0); i < 5; i++ {
		s.Complete(first+i, Token{Worker: 1, Version: 1})
	}
	if s.InFlight() != 0 {
		t.Fatalf("in flight %d after completes", s.InFlight())
	}
}

func TestSurvivalErrorFormatting(t *testing.T) {
	e := &SurvivalError{WorldLine: 3, SurvivingPrefix: 17, Exceptions: []uint64{5}}
	if e.Error() == "" {
		t.Fatal("empty error string")
	}
	if e.Unwrap() != ErrRolledBack {
		t.Fatal("unwrap target")
	}
}

func TestGraphMaxVersionAndWorkers(t *testing.T) {
	g := NewPrecedenceGraph()
	g.Add(Token{Worker: 3, Version: 2}, nil)
	g.Add(Token{Worker: 5, Version: 7}, nil)
	if g.MaxVersion(5) != 7 || g.MaxVersion(3) != 2 || g.MaxVersion(9) != 0 {
		t.Fatal("max versions")
	}
	if len(g.Workers()) != 2 {
		t.Fatalf("workers %v", g.Workers())
	}
	// Version-0 adds are ignored; version-0 tokens trivially durable/known.
	g.Add(Token{Worker: 1, Version: 0}, nil)
	if !g.Durable(Token{Worker: 1, Version: 0}) || !g.Known(Token{Worker: 1, Version: 0}) {
		t.Fatal("version 0 semantics")
	}
	if g.Known(Token{Worker: 1, Version: 1}) {
		t.Fatal("unreported token must be unknown")
	}
}

func TestExactFinderDuplicateAndSelfDeps(t *testing.T) {
	f := NewExactFinder()
	f.AddWorker(1)
	// Self-dependency and duplicate deps must not wedge the finder.
	f.Report(1, 1, []Token{{Worker: 1, Version: 1}, {Worker: 1, Version: 1}})
	if f.CurrentCut().Get(1) != 1 {
		t.Fatalf("self-dep blocked the cut: %v", f.CurrentCut())
	}
}
