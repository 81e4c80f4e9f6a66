package core

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// Model checking the DPR protocol: an exhaustive, deterministic simulation
// of a tiny DPR system over ALL interleavings of a bounded action set. The
// model has a client session issuing operations to two StateObjects, each
// with explicit Commit (checkpoint + report) and durability steps, an exact
// finder, and a crash action that rolls the system back to the current cut.
//
// Checked invariants, per §4.3:
//
//  1. The cut only ever contains durable versions whose dependency closures
//     are durable (prefix recoverability of the guarantee).
//  2. After a crash, the surviving session prefix is consistent with the
//     store state: every surviving operation's version is at or below the
//     cut position of its worker.
//  3. The cut is monotone (guarantees are never taken back), except across
//     failures, where it is exactly the frozen recovery cut.
//
// The state space is tiny (bounded ops, bounded commits, one crash) but the
// interleavings cover every ordering of checkpoint boundaries, durability
// notifications, finder reports, and the crash — precisely the races the
// paper's §3.2/§3.3 algorithms must tolerate.

// mcAction enumerates the model's atomic steps.
type mcAction int

const (
	mcOpA     mcAction = iota // client issues next op to A
	mcOpB                     // client issues next op to B
	mcCommitA                 // A draws a checkpoint boundary
	mcCommitB
	mcDurableA // A's oldest in-flight checkpoint becomes durable + reported
	mcDurableB
	mcCrash // system crashes and recovers to the current cut
	mcActionCount
)

// mcState is the whole model state; it is copied cheaply at branch points.
//
//dpr:ignore cut-worldline single-world-line model: the checker explores checkpoint/report interleavings, never recovery, so no world-line exists to tag
type mcState struct {
	// per-worker: current version, list of (version) checkpoints in flight,
	// durable version.
	current  [2]Version
	inflight [2][]Version
	durable  [2]Version
	// dependency: version deps recorded at op time (token of session's
	// previous op).
	deps map[Token][]Token
	// session: op log (worker, version per op), Vs clock.
	ops []Token
	vs  Version
	// finder; newFinder rebuilds an empty instance of the same kind at
	// branch points (the model is parametric over all three algorithms).
	finder    Finder
	newFinder func() Finder
	// budget
	opsLeft, commitsLeft, crashesLeft int
	// lastCut for monotonicity checking
	lastCut Cut
}

func (st *mcState) clone() *mcState {
	n := &mcState{
		current:     st.current,
		durable:     st.durable,
		vs:          st.vs,
		newFinder:   st.newFinder,
		opsLeft:     st.opsLeft,
		commitsLeft: st.commitsLeft,
		crashesLeft: st.crashesLeft,
		lastCut:     st.lastCut.Clone(),
	}
	for w := 0; w < 2; w++ {
		n.inflight[w] = append([]Version(nil), st.inflight[w]...)
	}
	n.ops = append([]Token(nil), st.ops...)
	n.deps = make(map[Token][]Token, len(st.deps))
	for k, v := range st.deps {
		n.deps[k] = v
	}
	// Rebuild the finder from the dependency history up to durable points:
	// simpler and safer than deep-copying its internals.
	n.finder = n.newFinder()
	n.finder.AddWorker(1)
	n.finder.AddWorker(2)
	for w := 0; w < 2; w++ {
		for v := Version(1); v <= st.durable[w]; v++ {
			tok := Token{Worker: WorkerID(w + 1), Version: v}
			n.finder.Report(tok.Worker, v, st.deps[tok])
		}
	}
	return n
}

// mcKey names a state by the fields clone rebuilds it from — clone rebuilds
// the finder from durable and deps, so they are the whole state — one byte per
// version, count and budget: the search explores two paths that reach the same
// state once.
type mcKey [80]byte

// key encodes st; the slices and the dependency pairs (sorted) are
// length-prefixed, so no two states share an encoding.
func (st *mcState) key() mcKey {
	var k mcKey
	n := 0
	put := func(vs ...int) {
		for _, v := range vs {
			if v < 0 || v > 255 || n == len(k) {
				panic(fmt.Sprintf("model state outgrew its key: %d at byte %d", v, n))
			}
			k[n] = byte(v)
			n++
		}
	}
	tok := func(t Token) { put(int(t.Worker), int(t.Version)) }
	put(int(st.current[0]), int(st.current[1]), int(st.durable[0]), int(st.durable[1]), int(st.vs),
		st.opsLeft, st.commitsLeft, st.crashesLeft,
		int(st.lastCut.Get(1)), int(st.lastCut.Get(2)))
	for w := 0; w < 2; w++ {
		put(len(st.inflight[w]))
		for _, v := range st.inflight[w] {
			put(int(v))
		}
	}
	put(len(st.ops))
	for _, t := range st.ops {
		tok(t)
	}
	var deps [][2]Token
	for t, ds := range st.deps {
		for _, d := range ds {
			deps = append(deps, [2]Token{t, d})
		}
	}
	slices.SortFunc(deps, func(a, b [2]Token) int {
		return cmp.Or(cmp.Compare(a[0].Worker, b[0].Worker), cmp.Compare(a[0].Version, b[0].Version),
			cmp.Compare(a[1].Worker, b[1].Worker), cmp.Compare(a[1].Version, b[1].Version))
	})
	put(len(deps))
	for _, d := range deps {
		tok(d[0])
		tok(d[1])
	}
	return k
}

func newMCState(newFinder func() Finder, ops, commits, crashes int) *mcState {
	st := &mcState{
		current:     [2]Version{1, 1},
		deps:        make(map[Token][]Token),
		newFinder:   newFinder,
		opsLeft:     ops,
		commitsLeft: commits,
		crashesLeft: crashes,
		lastCut:     Cut{},
	}
	st.finder = newFinder()
	st.finder.AddWorker(1)
	st.finder.AddWorker(2)
	return st
}

// mcFinders enumerates the finder kinds the model is checked against. The
// invariants are algorithm-independent: the approximate finder's cut (all
// tokens at or below the global Vmin) is a lower bound on the exact cut, and
// the hybrid merges the two, so all three must satisfy §4.3 at every state.
var mcFinders = []struct {
	name string
	make func() Finder
}{
	{"exact", func() Finder { return NewExactFinder() }},
	{"approximate", func() Finder { return NewApproximateFinder() }},
	{"hybrid", func() Finder { return NewHybridFinder() }},
}

// enabled reports whether an action is currently possible.
func (st *mcState) enabled(a mcAction) bool {
	switch a {
	case mcOpA, mcOpB:
		return st.opsLeft > 0
	case mcCommitA:
		return st.commitsLeft > 0
	case mcCommitB:
		return st.commitsLeft > 0
	case mcDurableA:
		return len(st.inflight[0]) > 0
	case mcDurableB:
		return len(st.inflight[1]) > 0
	case mcCrash:
		return st.crashesLeft > 0
	}
	return false
}

// apply executes an action, returning an error on invariant violation.
func (st *mcState) apply(a mcAction) error {
	switch a {
	case mcOpA, mcOpB:
		w := 0
		if a == mcOpB {
			w = 1
		}
		// Progress rule (§3.2): the op executes in a version >= Vs; the
		// worker fast-forwards by drawing a boundary if needed.
		if st.current[w] < st.vs {
			st.inflight[w] = append(st.inflight[w], st.vs-1)
			st.current[w] = st.vs
		}
		tok := Token{Worker: WorkerID(w + 1), Version: st.current[w]}
		// Dependency: the session's previous op's token.
		if len(st.ops) > 0 {
			prev := st.ops[len(st.ops)-1]
			if prev.Worker != tok.Worker {
				st.deps[tok] = append(st.deps[tok], prev)
			}
		}
		st.ops = append(st.ops, tok)
		if tok.Version > st.vs {
			st.vs = tok.Version
		}
		st.opsLeft--
	case mcCommitA, mcCommitB:
		w := 0
		if a == mcCommitB {
			w = 1
		}
		st.inflight[w] = append(st.inflight[w], st.current[w])
		st.current[w]++
		st.commitsLeft--
	case mcDurableA, mcDurableB:
		w := 0
		if a == mcDurableB {
			w = 1
		}
		v := st.inflight[w][0]
		st.inflight[w] = st.inflight[w][1:]
		// All checkpoints cover whole prefixes: report every version up to
		// v (fast-forward may have skipped some).
		for rv := st.durable[w] + 1; rv <= v; rv++ {
			tok := Token{Worker: WorkerID(w + 1), Version: rv}
			st.finder.Report(tok.Worker, rv, st.deps[tok])
		}
		if v > st.durable[w] {
			st.durable[w] = v
		}
	case mcCrash:
		cut := st.finder.CurrentCut()
		// Invariant 2: compute the surviving session prefix and verify it
		// is dependency-consistent: ops inside it are covered by the cut
		// and ops outside are not silently kept.
		surviving := 0
		for i, tok := range st.ops {
			if cut.Includes(tok) {
				surviving = i + 1
			} else {
				break
			}
		}
		for i := 0; i < surviving; i++ {
			if !cut.Includes(st.ops[i]) {
				return fmt.Errorf("surviving op %d (%v) outside cut %v", i, st.ops[i], cut)
			}
		}
		// Roll back: workers drop to cut positions, in-flight checkpoints
		// of rolled-back versions vanish, the session truncates.
		for w := 0; w < 2; w++ {
			pos := cut.Get(WorkerID(w + 1))
			if st.durable[w] > pos {
				st.durable[w] = pos
			}
			var keep []Version
			for _, v := range st.inflight[w] {
				if v <= pos {
					keep = append(keep, v)
				}
			}
			st.inflight[w] = keep
			if st.current[w] <= pos {
				st.current[w] = pos + 1
			}
			// Versions advance past everything rolled back (new world-line
			// operates in fresh versions).
			st.current[w]++
		}
		st.ops = st.ops[:surviving]
		// Vs regresses to the largest surviving position.
		st.vs = 0
		for _, tok := range st.ops {
			if tok.Version > st.vs {
				st.vs = tok.Version
			}
		}
		st.crashesLeft--
	}
	// Invariant 1: the cut contains only durable, dependency-closed tokens.
	cut := st.finder.CurrentCut()
	for w := 0; w < 2; w++ {
		pos := cut.Get(WorkerID(w + 1))
		if pos > st.durable[w] {
			return fmt.Errorf("cut %v exceeds durable frontier %v", cut, st.durable)
		}
		for v := Version(1); v <= pos; v++ {
			for _, dep := range st.deps[Token{Worker: WorkerID(w + 1), Version: v}] {
				if !cut.Includes(dep) {
					return fmt.Errorf("cut %v not dependency-closed: %d-%d needs %v", cut, w+1, v, dep)
				}
			}
		}
	}
	// Invariant 3: monotone except across a crash, where it is re-rooted at
	// the frozen cut (our model computes the cut at crash time, so the cut
	// never regresses even then).
	for w, v := range st.lastCut {
		if a != mcCrash && cut.Get(w) < v {
			return fmt.Errorf("cut regressed without a crash: %v -> %v", st.lastCut, cut)
		}
	}
	st.lastCut = cut
	return nil
}

// explore walks every interleaving of up to depth actions depth-first, and
// checks every transition out of every state it expands. visited holds the
// depth each state was expanded with: a state reached again is expanded again
// only with more depth left, as only then can it reach a state not yet seen.
func explore(t *testing.T, st *mcState, depth int, trace []mcAction, visited map[mcKey]int, transitions *int) {
	t.Helper()
	if depth == 0 {
		return
	}
	for a := mcAction(0); a < mcActionCount; a++ {
		if !st.enabled(a) {
			continue
		}
		next := st.clone()
		if err := next.apply(a); err != nil {
			t.Fatalf("invariant violation after %v + action %d: %v", trace, a, err)
		}
		*transitions++
		k := next.key()
		if d, ok := visited[k]; ok && d >= depth-1 {
			continue
		}
		visited[k] = depth - 1
		explore(t, next, depth-1, append(trace, a), visited, transitions)
	}
}

// TestModelCheckDPRInvariants exhaustively explores every interleaving of a
// bounded DPR execution (4 ops, 3 commit boundaries, 1 crash) and asserts
// the three §4.3 invariants at every state, once per finder algorithm. The
// distinct states reached are pinned per finder: a count that moves means the
// model or the finder changed, and a shrinking one would hide interleavings.
func TestModelCheckDPRInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("model checking is exponential; skipped with -short")
	}
	states := map[string]int{"exact": 72633, "approximate": 47305, "hybrid": 72633}
	for _, f := range mcFinders {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			transitions := 0
			visited := map[mcKey]int{}
			explore(t, newMCState(f.make, 4, 3, 1), 11, nil, visited, &transitions)
			if len(visited) != states[f.name] {
				t.Fatalf("explored %d distinct states, want %d", len(visited), states[f.name])
			}
			t.Logf("explored %d distinct states in %d transitions without invariant violations", len(visited), transitions)
		})
	}
}

// TestModelCheckNoCrash explores a deeper crash-free space (progress check:
// once all ops issue and all checkpoints drain, everything is in the cut).
func TestModelCheckNoCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("model checking is exponential; skipped with -short")
	}
	for _, f := range mcFinders {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			testModelCheckNoCrash(t, f.make)
		})
	}
}

func testModelCheckNoCrash(t *testing.T, newFinder func() Finder) {
	// Drive to completion along every interleaving, then drain remaining
	// checkpoints deterministically and check full commitment. Like explore,
	// a state is expanded again only with more depth left, and a terminal
	// state is checked once.
	var drive func(st *mcState, depth int)
	visited, checked := map[mcKey]int{}, map[mcKey]bool{}
	drive = func(st *mcState, depth int) {
		k := st.key()
		progressed := false
		if depth > 0 {
			if d, ok := visited[k]; ok && d >= depth {
				return
			}
			visited[k] = depth
			for a := mcAction(0); a < mcActionCount; a++ {
				if a == mcCrash || !st.enabled(a) {
					continue
				}
				progressed = true
				next := st.clone()
				if err := next.apply(a); err != nil {
					t.Fatal(err)
				}
				drive(next, depth-1)
			}
		}
		if !progressed && !checked[k] {
			checked[k] = true
			// Drain: draw commit boundaries and drain durability on both
			// workers until the cut covers every op. The exact finder
			// converges in one round; the approximate cut is Vmin across
			// workers, so a laggard must catch up one boundary per round
			// (the real system jumps straight to Vmax, §3.4 fast-forward).
			// Versions are bounded by the op/commit budget, so a bounded
			// number of rounds must converge — anything else is a progress
			// violation.
			final := st.clone()
			covered := func() (Token, bool) {
				cut := final.finder.CurrentCut()
				for _, tok := range final.ops {
					if !cut.Includes(tok) {
						return tok, false
					}
				}
				return Token{}, true
			}
			for round := 0; round < 16; round++ {
				if _, ok := covered(); ok {
					break
				}
				for _, a := range []mcAction{mcCommitA, mcCommitB} {
					final.commitsLeft = 1
					if err := final.apply(a); err != nil {
						t.Fatal(err)
					}
				}
				for len(final.inflight[0]) > 0 {
					if err := final.apply(mcDurableA); err != nil {
						t.Fatal(err)
					}
				}
				for len(final.inflight[1]) > 0 {
					if err := final.apply(mcDurableB); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tok, ok := covered(); !ok {
				t.Fatalf("progress violation: op %v never committed (cut %v)",
					tok, final.finder.CurrentCut())
			}
		}
	}
	drive(newMCState(newFinder, 3, 2, 0), 9)
	if len(checked) == 0 {
		t.Fatal("no terminal states checked")
	}
	t.Logf("checked full commitment in %d terminal states", len(checked))
}

// The session half of the model: the interval-based SessionTracker against the
// map-based one it replaced (session_oracle_test.go), on seeded random
// schedules rather than exhaustively — the state is a sequence space, not a
// handful of versions. One schedule is a session talking to three workers over
// "connections" that complete its batches out of order, in part, twice, with
// several versions inside one batch, and lose some; cuts arrive advancing,
// repeated and from a world-line the session has left; recoveries land with
// operations in flight and restart the version numbers. After every step
// everything a caller can see must be equal.

// trackerPair is one schedule's state: the two trackers and the world the
// schedule draws its steps from.
type trackerPair struct {
	t      *testing.T
	rng    *rand.Rand
	got    *SessionTracker
	want   *oracleTracker
	wl     WorldLine
	vers   [3]Version // the version each worker executes in
	cut    Cut        // the cut the finder would publish
	folded Cut        // what the session layer above the oracle would remember as folded last
	open   []mcBatch
	trace  []string // the steps so far, for a failure's message
}

func (p *trackerPair) fatalf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("%s\nafter: %s", fmt.Sprintf(format, args...), strings.Join(p.trace[max(0, len(p.trace)-12):], "\n       "))
}

type mcBatch struct {
	wl    WorldLine
	start uint64
	n     int
}

func (p *trackerPair) pick() (mcBatch, bool) {
	if len(p.open) == 0 {
		return mcBatch{}, false
	}
	i := p.rng.Intn(len(p.open))
	b := p.open[i]
	if p.rng.Intn(3) > 0 { // mostly resolved once; sometimes left to be resolved again
		p.open = slices.Delete(p.open, i, i+1)
	}
	return b, true
}

// sub narrows b to a random part of itself, or, rarely, widens it past both ends.
func (p *trackerPair) sub(b mcBatch) (uint64, int) {
	switch p.rng.Intn(4) {
	case 0:
		lo := p.rng.Intn(b.n)
		return b.start + uint64(lo), 1 + p.rng.Intn(b.n-lo)
	case 1:
		return max(b.start, 3) - 2, b.n + 4
	}
	return b.start, b.n
}

func (p *trackerPair) step() string {
	rng := p.rng
	switch k := rng.Intn(20); {
	case k < 6:
		n := []int{1, 1, 2, 5, 8, 64}[rng.Intn(6)]
		first, vs, dep, ok := p.got.StartBatch(p.wl, n)
		wantDep, _ := p.want.LatestToken()
		if wantVs, want := p.want.VersionClock(), p.want.BeginBatch(n); !ok || first != want || vs != wantVs || dep != wantDep {
			p.fatalf("StartBatch(%d) = %d, Vs %d, dep %v, %v; want %d, %d, %v", n, first, vs, dep, ok, want, wantVs, wantDep)
		}
		if _, _, _, ok := p.got.StartBatch(p.wl+1, n); ok {
			p.t.Fatal("StartBatch on a world-line the session is not on assigned sequence numbers")
		}
		p.open = append(p.open, mcBatch{p.wl, first, n})
		return fmt.Sprintf("begin %d+%d", first, n)
	case k < 12:
		b, ok := p.pick()
		if !ok {
			return "idle"
		}
		start, n := p.sub(b)
		w := rng.Intn(3)
		versions := make([]Version, n)
		for i := range versions {
			if rng.Intn(16) == 0 {
				p.vers[w]++ // a checkpoint boundary inside the batch
			}
			versions[i] = p.vers[w]
		}
		if rng.Intn(3) == 0 { // the reply carries a cut
			fold := p.folded == nil || !maps.Equal(p.folded, p.cut)
			gotP, gotFolded := p.got.CompleteAndFold(b.wl, start, WorkerID(w+1), versions, p.cut, 0)
			p.want.CompleteBatch(b.wl, start, WorkerID(w+1), versions)
			if b.wl == p.wl && len(p.cut) > 0 && fold {
				p.want.AdvanceCommitted(b.wl, p.cut)
				p.folded = p.cut.Clone()
			} else if gotFolded {
				p.fatalf("folded cut %v again (world-lines %d, %d)", p.cut, b.wl, p.wl)
			}
			if wantP, _ := p.want.Committed(); gotP != wantP {
				p.fatalf("CompleteAndFold: prefix %d, want %d", gotP, wantP)
			}
			return fmt.Sprintf("complete+fold %d+%d on %d at wl %d: %v, cut %v", start, n, w+1, b.wl, versions, p.cut)
		}
		if n == 1 && b.wl == p.wl {
			tok := Token{WorkerID(w + 1), versions[0]}
			if got, want := p.got.Complete(start, tok), p.want.Complete(start, tok); got != want {
				p.fatalf("Complete(%d) = %v, want %v", start, got, want)
			}
		} else {
			p.got.CompleteBatch(b.wl, start, WorkerID(w+1), versions)
			p.want.CompleteBatch(b.wl, start, WorkerID(w+1), versions)
		}
		return fmt.Sprintf("complete %d+%d on %d at wl %d: %v", start, n, w+1, b.wl, versions)
	case k < 14:
		b, ok := p.pick()
		if !ok {
			return "idle"
		}
		start, n := p.sub(b)
		if got, want := p.got.Abandon(b.wl, start, n), p.want.Abandon(b.wl, start, n); got != want {
			p.fatalf("Abandon(%d, %d, %d) = %d, want %d", b.wl, start, n, got, want)
		}
		return fmt.Sprintf("abandon %d+%d at wl %d", start, n, b.wl)
	case k < 19:
		wl := p.wl
		if rng.Intn(8) == 0 && wl > 0 {
			wl-- // a cut that was in the pipe when the recovery landed
		} else if rng.Intn(3) > 0 {
			w := rng.Intn(3)
			p.vers[w]++ // a checkpoint seals and the finder covers it
			p.cut[WorkerID(w+1)] = p.vers[w] - Version(rng.Intn(2))
		}
		gotP, gotExc := p.got.AdvanceCommitted(wl, p.cut)
		wantP, wantExc := p.want.AdvanceCommitted(wl, p.cut)
		if gotP != wantP || !slices.Equal(gotExc, wantExc) {
			p.fatalf("AdvanceCommitted(%d, %v) = %d %v, want %d %v", wl, p.cut, gotP, gotExc, wantP, wantExc)
		}
		if wl == p.wl {
			p.folded = p.cut.Clone()
		}
		return fmt.Sprintf("advance at wl %d to %v", wl, p.cut)
	default:
		p.wl += WorldLine(1 + rng.Intn(2))
		for w := range p.vers { // the recovered cut is at or below the published one, and versions restart above it
			p.cut[WorkerID(w+1)] -= min(p.cut[WorkerID(w+1)], Version(rng.Intn(3)))
			p.vers[w] = p.cut[WorkerID(w+1)] + 1
		}
		got, want := p.got.OnFailure(p.wl, p.cut), p.want.OnFailure(p.wl, p.cut)
		if (got == nil) != (want == nil) || got != nil && (got.WorldLine != want.WorldLine ||
			got.SurvivingPrefix != want.SurvivingPrefix || !slices.Equal(got.Exceptions, want.Exceptions)) {
			p.fatalf("OnFailure(%d, %v) = %+v, want %+v", p.wl, p.cut, got, want)
		}
		p.folded = nil // remembered with its world-line
		if rng.Intn(2) == 0 {
			p.open = nil // the transport settles what was in flight; otherwise stale replies trickle in
		}
		return fmt.Sprintf("failure to wl %d, cut %v", p.wl, p.cut)
	}
}

// check compares everything observable.
func (p *trackerPair) check() {
	p.t.Helper()
	gotP, gotExc := p.got.Committed()
	wantP, wantExc := p.want.Committed()
	if gotP != wantP || !slices.Equal(gotExc, wantExc) {
		p.fatalf("Committed() = %d %v, want %d %v", gotP, gotExc, wantP, wantExc)
	}
	gotTok, gotOK := p.got.LatestToken()
	wantTok, wantOK := p.want.LatestToken()
	if gotTok != wantTok || gotOK != wantOK || p.got.InFlight() != p.want.InFlight() || p.got.NextSeq() != p.want.NextSeq() ||
		p.got.VersionClock() != p.want.VersionClock() || p.got.WorldLine() != p.want.WorldLine() {
		p.fatalf("latest %v %v, in flight %d, next %d, Vs %d, wl %d; want %v %v, %d, %d, %d, %d",
			gotTok, gotOK, p.got.InFlight(), p.got.NextSeq(), p.got.VersionClock(), p.got.WorldLine(),
			wantTok, wantOK, p.want.InFlight(), p.want.NextSeq(), p.want.VersionClock(), p.want.WorldLine())
	}
	next := p.want.NextSeq()
	for _, seq := range []uint64{1, wantP, wantP + 1, next - 1, next, 1 + uint64(p.rng.Int63n(int64(next)))} {
		gp, gopen, ghole := p.got.CommitStatus(seq)
		wp, wopen, whole := p.want.CommitStatus(seq)
		if gp != wp || gopen != wopen || ghole != whole {
			p.fatalf("CommitStatus(%d) = %d %d %d, want %d %d %d", seq, gp, gopen, ghole, wp, wopen, whole)
		}
	}
	// The interval invariants: each set sorted, disjoint and non-adjacent, no
	// sequence number in two of them, inFlight the size of pending.
	var spans []tokenRun
	inFlight := 0
	for _, set := range []seqSet{p.got.pending, p.got.abandoned, p.got.runs} {
		for i, r := range set {
			if r.start > r.end || i > 0 && (set[i-1].end >= r.start || set[i-1].end+1 == r.start && set[i-1].tok == r.tok) {
				p.fatalf("interval set %v is not sorted and disjoint, or two neighbours with one token are not joined", set)
			}
		}
		spans = append(spans, set...)
	}
	for _, r := range p.got.pending {
		inFlight += int(r.end - r.start + 1)
	}
	slices.SortFunc(spans, func(a, b tokenRun) int { return int(a.start) - int(b.start) })
	for i := 1; i < len(spans); i++ {
		if spans[i-1].end >= spans[i].start {
			p.fatalf("a sequence number is in two sets: pending %v, abandoned %v, runs %v", p.got.pending, p.got.abandoned, p.got.runs)
		}
	}
	if inFlight != p.got.inFlight {
		p.fatalf("inFlight %d, pending %v holds %d", p.got.inFlight, p.got.pending, inFlight)
	}
}

// TestTrackerMatchesOracle drives the interval-based tracker and the map-based
// one it replaced through the same random schedules, strict and relaxed.
func TestTrackerMatchesOracle(t *testing.T) {
	seeds, steps := 300, 400
	if testing.Short() {
		seeds = 40
	}
	for _, relaxed := range []bool{false, true} {
		t.Run(map[bool]string{false: "strict", true: "relaxed"}[relaxed], func(t *testing.T) {
			for seed := 1; seed <= seeds; seed++ {
				p := &trackerPair{t: t, rng: rand.New(rand.NewSource(int64(seed))),
					got: NewSessionTracker(0, relaxed), want: newOracleTracker(0, relaxed),
					vers: [3]Version{1, 1, 1}, cut: Cut{}}
				for i := 0; i < steps; i++ {
					p.trace = append(p.trace, fmt.Sprintf("seed %d: %s", seed, p.step()))
					p.check()
				}
			}
		})
	}
}

// TestFoldRecognisesTheCut: a cut is advanced to once, whether it is recognised
// by generation or by its entries, and again after anything about it changes.
func TestFoldRecognisesTheCut(t *testing.T) {
	s := NewSessionTracker(0, true)
	s.BeginBatch(4)
	s.CompleteBatch(0, 1, 1, []Version{1, 1, 2, 2})
	cut := Cut{1: 1, 2: 0}
	for _, tc := range []struct {
		name   string
		wl     WorldLine
		cut    Cut
		gen    uint64
		folded bool
		prefix uint64
	}{
		{"first", 0, cut, 7, true, 2},
		{"same generation", 0, nil, 7, false, 2},
		{"same entries, no generation", 0, cut.Clone(), 0, false, 2},
		{"same entries, another generation", 0, cut, 8, false, 2},
		{"an entry moved", 0, Cut{1: 2, 2: 0}, 0, true, 4},
		{"another world-line", 1, Cut{1: 2, 2: 0}, 0, false, 4},
		{"one key swapped for another", 0, Cut{1: 2, 3: 0}, 0, true, 4},
		{"an empty cut", 0, Cut{}, 9, false, 4},
	} {
		c := tc.cut
		if c == nil { // recognised by generation: the map is not looked at
			c = Cut{9: 9}
		}
		if p, folded := s.CompleteAndFold(tc.wl, 0, 0, nil, c, tc.gen); folded != tc.folded || p != tc.prefix {
			t.Errorf("%s: CompleteAndFold = %d, %v; want %d, %v", tc.name, p, folded, tc.prefix, tc.folded)
		}
	}
	if reflect.DeepEqual(s.foldedCut, []cutEntry(nil)) {
		t.Error("nothing remembered")
	}
}
