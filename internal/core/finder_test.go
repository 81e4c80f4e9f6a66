package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tok(w WorkerID, v Version) Token { return Token{Worker: w, Version: v} }

func TestCutBasics(t *testing.T) {
	c := Cut{1: 3, 2: 1}
	if !c.Includes(tok(1, 3)) || !c.Includes(tok(1, 1)) {
		t.Fatal("cut must include versions at or below position")
	}
	if c.Includes(tok(1, 4)) {
		t.Fatal("cut must exclude versions above position")
	}
	if !c.Includes(tok(9, 0)) {
		t.Fatal("version 0 of any worker is always included")
	}
	if c.Max() != 3 || (Cut{}).Max() != 0 || Cut(nil).Max() != 0 {
		t.Fatal("Max must be the highest position, 0 for an empty cut")
	}
	cl := c.Clone()
	cl[1] = 10
	if c[1] != 3 {
		t.Fatal("Clone must not alias")
	}
	if !c.Merge(Cut{1: 5}) || c[1] != 5 {
		t.Fatal("Merge must raise positions")
	}
	if c.Merge(Cut{1: 2}) {
		t.Fatal("Merge must not regress positions")
	}
	if !c.Equal(Cut{1: 5, 2: 1, 3: 0}) {
		t.Fatal("Equal must ignore zero positions")
	}
}

func TestTokenCovers(t *testing.T) {
	if !tok(1, 3).Covers(tok(1, 2)) || !tok(1, 3).Covers(tok(1, 3)) {
		t.Fatal("later versions cover earlier versions of the same worker")
	}
	if tok(1, 3).Covers(tok(2, 1)) {
		t.Fatal("tokens of different workers are incomparable")
	}
}

func TestExactFinderLinearChain(t *testing.T) {
	f := NewExactFinder()
	f.AddWorker(1)
	f.AddWorker(2)
	// Worker 2's version 1 depends on worker 1's version 1 (a session went
	// 1 -> 2). Reporting 2-1 first must not advance the cut for worker 2.
	f.Report(2, 1, []Token{tok(1, 1)})
	if cut := f.CurrentCut(); cut.Get(2) != 0 {
		t.Fatalf("cut advanced past missing dependency: %v", cut)
	}
	f.Report(1, 1, nil)
	cut := f.CurrentCut()
	if cut.Get(1) != 1 || cut.Get(2) != 1 {
		t.Fatalf("expected cut {1:1 2:1}, got %v", cut)
	}
}

func TestExactFinderRunningExample(t *testing.T) {
	// Figure 2 of the paper: tokens A-1, A-2, B-1, B-2, C-2 with
	// B-1 -> A-1, A-2 -> B-1, B-2 -> A-2 (S1), and C-2 -> A-2, B-2 -> C-2 (S2).
	const A, B, C = 1, 2, 3
	f := NewExactFinder()
	for _, w := range []WorkerID{A, B, C} {
		f.AddWorker(w)
	}
	// Report B-1 first: depends on A-1 which is not yet durable.
	f.Report(B, 1, []Token{tok(A, 1)})
	if cut := f.CurrentCut(); cut.Get(B) != 0 {
		t.Fatalf("B-1 admitted before A-1 durable: %v", cut)
	}
	// A-1 durable: now {A-1, B-1} is the DPR-cut from the paper's figure.
	f.Report(A, 1, nil)
	cut := f.CurrentCut()
	if cut.Get(A) != 1 || cut.Get(B) != 1 || cut.Get(C) != 0 {
		t.Fatalf("expected paper cut {A-1,B-1}, got %v", cut)
	}
	// A-2 depends on B-1 (already in cut).
	f.Report(A, 2, []Token{tok(B, 1)})
	cut = f.CurrentCut()
	if cut.Get(A) != 2 {
		t.Fatalf("A-2 should commit, got %v", cut)
	}
	// B-2 depends on A-2 and C-2; C-2 not durable yet.
	f.Report(B, 2, []Token{tok(A, 2), tok(C, 2)})
	if cut := f.CurrentCut(); cut.Get(B) != 1 {
		t.Fatalf("B-2 admitted before C-2 durable: %v", cut)
	}
	// C-2 depends on A-2. C-1 is implicit (C-2 depends on C-1); C-1 was
	// never reported, so C cannot commit until it reports version 1 too.
	f.Report(C, 1, nil)
	f.Report(C, 2, []Token{tok(A, 2)})
	cut = f.CurrentCut()
	if cut.Get(A) != 2 || cut.Get(B) != 2 || cut.Get(C) != 2 {
		t.Fatalf("expected full cut, got %v", cut)
	}
}

// TestNoCutWithoutCoordination reproduces Figure 3: two StateObjects whose
// staggered uncoordinated commits never form a non-trivial DPR-cut. Each
// token depends on the other worker's *next* token, so no finite closure is
// durable and the exact finder never advances.
func TestNoCutWithoutCoordination(t *testing.T) {
	const A, B = 1, 2
	f := NewExactFinder()
	f.AddWorker(A)
	f.AddWorker(B)
	// A client alternates single ops A,B,A,B,... Commit boundaries are
	// staggered and then fire every 3 operations: A-1={op1,op3},
	// B-1={op2,op4,op6}, A-2={op5,op7,op9}, B-2={op8,op10,op12}, ...
	// Deriving precedence edges (X depends on Y if an op in Y immediately
	// precedes an op in X): A-n depends on B-(n-1) and B-n; B-n depends on
	// A-n and A-(n+1). Every token transitively depends on the other
	// worker's *next* token — an infinite dependency chain, so no pair of
	// tokens ever forms a DPR-cut.
	const rounds = 50
	for n := Version(1); n <= rounds; n++ {
		adeps := []Token{tok(B, n)}
		if n > 1 {
			adeps = append(adeps, tok(B, n-1))
		}
		f.Report(A, n, adeps)
		f.Report(B, n, []Token{tok(A, n), tok(A, n+1)})
	}
	cut := f.CurrentCut()
	if cut.Get(A) != 0 || cut.Get(B) != 0 {
		t.Fatalf("no token should ever commit under staggered commits, got %v", cut)
	}
}

// TestProgressWithVersionClock shows the §3.2 fix: when clients carry Vs and
// workers fast-forward, versions never depend on larger versions and every
// version eventually commits.
func TestProgressWithVersionClock(t *testing.T) {
	const A, B = 1, 2
	f := NewExactFinder()
	f.AddWorker(A)
	f.AddWorker(B)
	// With the progress rule, a dependency from B-n can only point to
	// versions <= n. Simulate alternating traffic with the clock.
	var vs Version = 1
	versionOf := map[WorkerID]Version{A: 1, B: 1}
	report := func(w WorkerID, dep Token) {
		v := versionOf[w]
		if v < vs {
			v = vs // fast-forward (§3.2)
		}
		if dep.Version > 0 {
			f.Report(w, v, []Token{dep})
		} else {
			f.Report(w, v, nil)
		}
		// Fill any versions the fast-forward skipped so prefixes are whole.
		for missing := versionOf[w]; missing < v; missing++ {
			f.Report(w, missing, nil)
		}
		versionOf[w] = v + 1
		if v > vs {
			vs = v
		}
	}
	var lastA, lastB Token
	for i := 0; i < 20; i++ {
		report(A, lastB)
		lastA = tok(A, versionOf[A]-1)
		report(B, lastA)
		lastB = tok(B, versionOf[B]-1)
	}
	cut := f.CurrentCut()
	if cut.Get(A) == 0 || cut.Get(B) == 0 {
		t.Fatalf("progress rule failed to produce a cut: %v", cut)
	}
}

func TestApproximateFinderMin(t *testing.T) {
	f := NewApproximateFinder()
	f.AddWorker(1)
	f.AddWorker(2)
	f.AddWorker(3)
	f.Report(1, 5, nil)
	f.Report(2, 3, nil)
	cut := f.CurrentCut()
	if cut.Get(1) != 0 || cut.Get(2) != 0 {
		t.Fatalf("cut should be pinned at unreported worker 3: %v", cut)
	}
	f.Report(3, 4, nil)
	cut = f.CurrentCut()
	for w := WorkerID(1); w <= 3; w++ {
		if cut.Get(w) != 3 {
			t.Fatalf("expected Vmin=3 everywhere, got %v", cut)
		}
	}
	if f.MaxVersion() != 5 {
		t.Fatalf("Vmax should be 5, got %d", f.MaxVersion())
	}
	// Positions never regress even if min would move down after a worker
	// joins late.
	f.AddWorker(4)
	cut = f.CurrentCut()
	if cut.Get(1) != 3 {
		t.Fatalf("existing guarantee regressed after membership change: %v", cut)
	}
}

func TestApproximateRemoveWorkerUnblocks(t *testing.T) {
	f := NewApproximateFinder()
	f.AddWorker(1)
	f.AddWorker(2)
	f.Report(1, 7, nil)
	if f.CurrentCut().Get(1) != 0 {
		t.Fatal("worker 2 should pin the cut")
	}
	f.RemoveWorker(2)
	if f.CurrentCut().Get(1) != 7 {
		t.Fatalf("removing the lagging worker should unblock: %v", f.CurrentCut())
	}
}

func TestHybridFinderCrashRecovery(t *testing.T) {
	const A, B = 1, 2
	f := NewHybridFinder()
	f.AddWorker(A)
	f.AddWorker(B)
	f.Report(A, 1, nil)
	f.Report(B, 1, []Token{tok(A, 1)})
	cut := f.CurrentCut()
	if cut.Get(A) != 1 || cut.Get(B) != 1 {
		t.Fatalf("hybrid should behave exactly before crash: %v", cut)
	}
	// Crash the in-memory graph. Subsequent reports with cross-deps cannot
	// be resolved exactly, but the approximate component advances the cut.
	f.CrashExact()
	f.Report(A, 2, []Token{tok(B, 1)})
	f.Report(B, 2, []Token{tok(A, 2)})
	cut = f.CurrentCut()
	if cut.Get(A) != 2 || cut.Get(B) != 2 {
		t.Fatalf("approximate fallback should advance the cut: %v", cut)
	}
	// After the cut passes the crash point, exact precision resumes: a
	// dependency on a missing token is now inside the cut and closures work.
	f.Report(A, 3, []Token{tok(B, 2)})
	f.Report(B, 3, []Token{tok(A, 3)})
	cut = f.CurrentCut()
	if cut.Get(A) != 3 || cut.Get(B) != 3 {
		t.Fatalf("exact precision should resume post-crash: %v", cut)
	}
}

// Property: the exact finder's cut is always dependency-closed and only
// contains durable tokens, for random report interleavings respecting the
// progress rule (deps never exceed own version).
func TestExactFinderCutClosedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const workers = 4
		const maxVersion = 8
		f := NewExactFinder()
		for w := WorkerID(1); w <= workers; w++ {
			f.AddWorker(w)
		}
		// Build a random dependency history obeying monotonicity.
		type rep struct {
			w    WorkerID
			v    Version
			deps []Token
		}
		var reports []rep
		for w := WorkerID(1); w <= workers; w++ {
			for v := Version(1); v <= maxVersion; v++ {
				var deps []Token
				for i := 0; i < rng.Intn(3); i++ {
					dw := WorkerID(rng.Intn(workers) + 1)
					if dw == w {
						continue
					}
					dv := Version(rng.Intn(int(v))) + 1 // 1..v (monotone)
					deps = append(deps, tok(dw, dv))
				}
				reports = append(reports, rep{w, v, deps})
			}
		}
		// Shuffle, but keep per-worker version order (required by Report).
		rng.Shuffle(len(reports), func(i, j int) { reports[i], reports[j] = reports[j], reports[i] })
		var ordered []rep
		next := map[WorkerID]Version{}
		remaining := append([]rep(nil), reports...)
		for len(remaining) > 0 {
			for i := 0; i < len(remaining); i++ {
				r := remaining[i]
				if r.v == next[r.w]+1 {
					ordered = append(ordered, r)
					next[r.w] = r.v
					remaining = append(remaining[:i], remaining[i+1:]...)
					i--
				}
			}
		}
		depsOf := map[Token][]Token{}
		reported := map[Token]bool{}
		for _, r := range ordered {
			depsOf[tok(r.w, r.v)] = r.deps
			reported[tok(r.w, r.v)] = true
			f.Report(r.w, r.v, r.deps)
			cut := f.CurrentCut()
			// Check closure: every token in the cut has deps in the cut and
			// has been reported durable.
			for w, v := range cut {
				for cv := Version(1); cv <= v; cv++ {
					ct := tok(w, cv)
					if !reported[ct] {
						return false
					}
					for _, d := range depsOf[ct] {
						if !cut.Includes(d) {
							return false
						}
					}
				}
			}
		}
		// After all reports, every version must be committed (progress).
		final := f.CurrentCut()
		for w := WorkerID(1); w <= workers; w++ {
			if final.Get(w) != maxVersion {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: approximate cut is always a subset of (at or below) the exact cut
// when fed the same monotone history, i.e. approximation only loses
// precision, never safety.
func TestApproximateConservativeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const workers = 3
		exact := NewExactFinder()
		approx := NewApproximateFinder()
		for w := WorkerID(1); w <= workers; w++ {
			exact.AddWorker(w)
			approx.AddWorker(w)
		}
		nextV := map[WorkerID]Version{}
		for i := 0; i < 60; i++ {
			w := WorkerID(rng.Intn(workers) + 1)
			v := nextV[w] + 1
			nextV[w] = v
			var deps []Token
			if rng.Intn(2) == 0 {
				dw := WorkerID(rng.Intn(workers) + 1)
				if dw != w {
					dv := Version(rng.Intn(int(v))) + 1
					if dv <= nextV[dw] { // only depend on existing versions
						deps = append(deps, tok(dw, dv))
					}
				}
			}
			exact.Report(w, v, deps)
			approx.Report(w, v, nil)
			ec, ac := exact.CurrentCut(), approx.CurrentCut()
			for aw, av := range ac {
				if av > ec.Get(aw) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPrecedenceGraphPrune(t *testing.T) {
	g := NewPrecedenceGraph()
	g.Add(tok(1, 1), nil)
	g.Add(tok(1, 2), nil)
	g.Add(tok(2, 1), []Token{tok(1, 2)})
	if g.Size() != 3 {
		t.Fatalf("expected 3 tokens, got %d", g.Size())
	}
	g.PruneBelow(Cut{1: 2, 2: 1})
	if g.Size() != 0 {
		t.Fatalf("expected empty graph after prune, got %d", g.Size())
	}
}

func TestGraphDependencySetMissingDep(t *testing.T) {
	g := NewPrecedenceGraph()
	g.Add(tok(2, 1), []Token{tok(1, 1)})
	if _, ok := g.DependencySet(tok(2, 1), Cut{}); ok {
		t.Fatal("closure over unreported dependency must fail")
	}
	g.Add(tok(1, 1), nil)
	set, ok := g.DependencySet(tok(2, 1), Cut{})
	if !ok || len(set) != 2 {
		t.Fatalf("expected closure of size 2, got %v ok=%v", set, ok)
	}
	// With a base cut covering the dependency, the closure shrinks.
	set, ok = g.DependencySet(tok(2, 1), Cut{1: 1})
	if !ok || len(set) != 1 {
		t.Fatalf("expected closure of size 1 with base cut, got %v", set)
	}
}
