package core

import (
	"fmt"
	"testing"
)

// finderModel replays one byte-driven script against all three finders at
// once and checks, after every step, the invariants any DPR cut must hold:
//
//   - durability: cut[w] never exceeds the largest version w reported
//     persisted (versions are checkpoint prefixes, so <= persisted is
//     persisted);
//   - dependency closure: every reported version inside the cut has all of
//     its recorded dependencies inside the cut;
//   - monotonicity: no per-worker cut position ever regresses;
//   - ordering: the hybrid cut always dominates the approximate cut, and —
//     until the first exact-graph crash — the exact cut does too.
//
// Scripts respect the progress rule by construction: a version is bumped to
// at least the largest version it depends on, and per-worker versions are
// reported in increasing order.
type finderModel struct {
	t      *testing.T
	exact  *ExactFinder
	approx *ApproximateFinder
	hybrid *HybridFinder

	registered map[WorkerID]bool
	nextV      map[WorkerID]Version
	lastV      map[WorkerID]Version // last reported (0 = none yet)
	persisted  map[WorkerID]Version // max reported
	deps       map[Token][]Token
	crashed    bool

	prevExact, prevApprox, prevHybrid Cut
}

// fuzzWorkers is the initial membership; maxFuzzWorkers bounds the worker
// space so scripts can also join members 4 and 5 mid-round, or register a
// member again as a restarted worker does: the finder must keep every
// invariant while AddWorker interleaves with reports.
const (
	fuzzWorkers    = 3
	maxFuzzWorkers = 5
)

func newFinderModel(t *testing.T) *finderModel {
	m := &finderModel{
		t:          t,
		exact:      NewExactFinder(),
		approx:     NewApproximateFinder(),
		hybrid:     NewHybridFinder(),
		registered: make(map[WorkerID]bool),
		nextV:      make(map[WorkerID]Version),
		lastV:      make(map[WorkerID]Version),
		persisted:  make(map[WorkerID]Version),
		deps:       make(map[Token][]Token),
		prevExact:  Cut{},
		prevApprox: Cut{},
		prevHybrid: Cut{},
	}
	for w := WorkerID(1); w <= fuzzWorkers; w++ {
		m.addWorker(w)
	}
	return m
}

// addWorker registers w with every finder, again if w is a member already,
// as a restarted worker does.
func (m *finderModel) addWorker(w WorkerID) {
	if !m.registered[w] {
		m.registered[w] = true
		m.nextV[w] = 1
	}
	m.exact.AddWorker(w)
	m.approx.AddWorker(w)
	m.hybrid.AddWorker(w)
}

// report issues the next version of w, depending on the last reported
// version of every worker selected by depMask (bit i = worker i+1).
func (m *finderModel) report(w WorkerID, depMask byte) {
	if !m.registered[w] {
		return
	}
	var deps []Token
	v := m.nextV[w]
	for i := 0; i < maxFuzzWorkers; i++ {
		dw := WorkerID(i + 1)
		if depMask&(1<<i) == 0 || dw == w {
			continue
		}
		dv := m.lastV[dw]
		if dv == 0 {
			continue
		}
		deps = append(deps, Token{Worker: dw, Version: dv})
		if dv > v {
			v = dv // Lamport bump keeps the progress rule: deps <= own version
		}
	}
	m.nextV[w] = v + 1
	m.lastV[w] = v
	if v > m.persisted[w] {
		m.persisted[w] = v
	}
	m.deps[Token{Worker: w, Version: v}] = deps
	m.exact.Report(w, v, deps)
	m.approx.Report(w, v, nil)
	m.hybrid.Report(w, v, deps)
}

func (m *finderModel) crashExact() {
	m.hybrid.CrashExact()
	m.crashed = true
}

func (m *finderModel) checkCut(name string, cut, prev Cut) {
	t := m.t
	t.Helper()
	for w, v := range cut {
		if v > m.persisted[w] {
			t.Fatalf("%s: cut[%d]=%d exceeds persisted %d", name, w, v, m.persisted[w])
		}
	}
	for w, v := range prev {
		if cut.Get(w) < v {
			t.Fatalf("%s: cut[%d] regressed %d -> %d", name, w, v, cut.Get(w))
		}
	}
	for tok, deps := range m.deps {
		if !cut.Includes(tok) {
			continue
		}
		for _, d := range deps {
			if !cut.Includes(d) {
				t.Fatalf("%s: cut %v includes %v but not its dependency %v", name, cut, tok, d)
			}
		}
	}
}

func (m *finderModel) checkAll() {
	t := m.t
	t.Helper()
	ec := m.exact.CurrentCut()
	ac := m.approx.CurrentCut()
	hc := m.hybrid.CurrentCut()
	m.checkCut("exact", ec, m.prevExact)
	m.checkCut("approx", ac, m.prevApprox)
	m.checkCut("hybrid", hc, m.prevHybrid)
	for w, v := range ac {
		if hc.Get(w) < v {
			t.Fatalf("hybrid cut %v does not dominate approximate cut %v at worker %d", hc, ac, w)
		}
		if !m.crashed && ec.Get(w) < v {
			t.Fatalf("exact cut %v below approximate cut %v at worker %d (no crash occurred)", ec, ac, w)
		}
	}
	m.prevExact, m.prevApprox, m.prevHybrid = ec, ac, hc
}

// runFinderScript interprets data as a finder op script; see the op switch.
func runFinderScript(t *testing.T, data []byte) {
	m := newFinderModel(t)
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		w := WorkerID(arg%maxFuzzWorkers) + 1
		switch op % 10 {
		case 0, 1, 2, 3, 4: // report with dep mask from the high bits
			m.report(w, arg>>3)
		case 5: // join (or register again after a restart)
			m.addWorker(w)
		case 6:
			m.crashExact()
		case 7: // burst: every registered worker reports dependency-free
			for rw := WorkerID(1); rw <= maxFuzzWorkers; rw++ {
				m.report(rw, 0)
			}
		case 8: // cross-worker edge: w reports, then dependent reports a
			// version that depends on it, so both must enter the cut
			// together.
			dependent := WorkerID((arg>>3)%maxFuzzWorkers) + 1
			if w != dependent && m.registered[w] && m.registered[dependent] {
				m.report(w, 0)
				m.report(dependent, 1<<(w-1))
			}
		case 9: // join a fresh member and let it report immediately, the
			// dfaster join path (NewWorker registers, maintenance reports).
			m.addWorker(w)
			m.report(w, 0)
		}
		m.checkAll()
	}
}

// FuzzFinderCutProperties is the finder property test: arbitrary
// interleavings of reports, registrations, and exact-graph crashes must
// never produce a cut that is unsafe (non-dependency-closed or beyond
// durability) or non-monotonic, for any of the three finders. Failing inputs
// land in testdata/fuzz/FuzzFinderCutProperties as the regression corpus.
func FuzzFinderCutProperties(f *testing.F) {
	// Seeds: plain progress; cross-worker dependency chains; re-register a
	// laggard; crash mid-stream; re-register a worker others depend on; join
	// a fresh member and give it a cross-worker edge; chains of edges between
	// members old and new. Op numbers are fixed so that these seeds and the
	// checked-in corpus keep their meaning.
	f.Add([]byte{0, 0, 0, 1, 0, 2, 7, 0})
	f.Add([]byte{0, 0, 1, 0x0A, 2, 0x31, 0, 0x19, 7, 0})
	f.Add([]byte{0, 0, 0, 1, 4, 2, 0, 0, 0, 1, 5, 2, 0, 2, 7, 0})
	f.Add([]byte{0, 0, 1, 1, 6, 0, 0, 0x0A, 0, 1, 7, 0, 0, 2})
	f.Add([]byte{0, 0, 0, 0x09, 1, 0x1A, 4, 0, 0, 0x19, 5, 0, 7, 0})
	f.Add([]byte{9, 3, 0, 0, 8, 25, 7, 0, 0, 3})
	f.Add([]byte{0, 0, 8, 10, 4, 0, 7, 0, 9, 4, 8, 36, 4, 1, 7, 0})
	f.Fuzz(runFinderScript)
}

// TestFinderScriptedRegressions replays the fuzz seeds deterministically (so
// `go test` exercises them even without -fuzz) plus hand-written scripts for
// the re-registration and crash interleavings that motivated the property
// test.
func TestFinderScriptedRegressions(t *testing.T) {
	scripts := [][]byte{
		{0, 0, 0, 1, 0, 2, 7, 0},
		{0, 0, 1, 0x0A, 2, 0x31, 0, 0x19, 7, 0},
		{0, 0, 0, 1, 4, 2, 0, 0, 0, 1, 5, 2, 0, 2, 7, 0},
		{0, 0, 1, 1, 6, 0, 0, 0x0A, 0, 1, 7, 0, 0, 2},
		{0, 0, 0, 0x09, 1, 0x1A, 4, 0, 0, 0x19, 5, 0, 7, 0},
		// Every op against every worker, twice around.
		{0, 0, 1, 1, 2, 2, 4, 0, 5, 0, 6, 0, 7, 0, 0, 0, 1, 1, 2, 2, 4, 1, 5, 1, 7, 0},
		// Worker 4 joins mid-round and reports a version that depends on
		// worker 1's.
		{9, 3, 0, 0, 8, 25, 7, 0, 0, 3},
		// 2 depends on 1, 5 joins and depends on 2, with reports (op 4)
		// between.
		{0, 0, 8, 10, 4, 0, 7, 0, 9, 4, 8, 36, 4, 1, 7, 0},
	}
	for i, s := range scripts {
		s := s
		t.Run(fmt.Sprintf("script=%d", i), func(t *testing.T) { runFinderScript(t, s) })
	}
}
