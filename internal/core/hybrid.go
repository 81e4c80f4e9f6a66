package core

import "sync"

// HybridFinder combines the exact and approximate algorithms (§3.4). The
// exact finder keeps its precedence graph purely in memory — cheap, but the
// graph is lost if the finder node crashes. The approximate finder runs in
// parallel against the durable version table. After a crash of the exact
// component, the exact algorithm is temporarily unable to commit (it cannot
// know the dependency sets of versions reported before the crash), but the
// approximate algorithm eventually advances the cut past the missing
// subgraph, at which point the exact finder resumes with full precision.
//
// The reported cut is the merge of both components; the approximate cut is a
// lower bound on the exact cut in steady state, so merging preserves
// correctness.
//
//dpr:ignore cut-worldline finders are world-line-local by design; metadata.Store owns the (world-line, cut) pairing and resets finders across recoveries
type HybridFinder struct {
	mu     sync.Mutex
	exact  *ExactFinder
	approx *ApproximateFinder
	// cut is the merge of both components' cuts, refreshed in place on every
	// report.
	cut Cut
}

// NewHybridFinder returns a HybridFinder with empty history.
func NewHybridFinder() *HybridFinder {
	return &HybridFinder{
		exact:  NewExactFinder(),
		approx: NewApproximateFinder(),
		cut:    make(Cut),
	}
}

// AddWorker registers w with both components.
func (f *HybridFinder) AddWorker(w WorkerID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.exact.AddWorker(w)
	f.approx.AddWorker(w)
	if _, ok := f.cut[w]; !ok {
		f.cut[w] = 0
	}
}

// Report feeds both components and refreshes the merged cut. The components
// merge their cuts in place (no per-report clones), keeping report cost
// independent of cluster size.
func (f *HybridFinder) Report(w WorkerID, v Version, deps []Token) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.exact.Report(w, v, deps)
	f.approx.Report(w, v, nil)
	f.exact.MergeCutInto(f.cut)
	f.approx.MergeCutInto(f.cut)
}

// CrashExact simulates losing the in-memory precedence graph (finder node
// restart). The durable approximate table survives; the exact component
// restarts empty and its stale frontier knowledge is discarded. Version
// reports arriving after the crash may depend on pre-crash versions the new
// graph has never seen; DependencySet correctly refuses to close over
// unknown tokens, so the exact cut stalls until the approximate cut
// overtakes the missing region — the recovery behaviour described in §3.4.
func (f *HybridFinder) CrashExact() {
	f.mu.Lock()
	defer f.mu.Unlock()
	fresh := NewExactFinder()
	// Registered workers carry over (membership is durable metadata); the
	// exact cut restarts from the merged durable cut so already-guaranteed
	// prefixes are never re-examined.
	for w := range f.approx.persisted {
		fresh.AddWorker(w)
	}
	fresh.cut = f.cut.Clone()
	f.exact = fresh
}

// CurrentCut returns a copy of the merged cut.
//
//dpr:ignore cut-worldline finder cuts are world-line-local; metadata.Store tags them before they travel
func (f *HybridFinder) CurrentCut() Cut {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cut.Clone()
}

// MaxVersion returns Vmax from the durable table.
func (f *HybridFinder) MaxVersion() Version { return f.approx.MaxVersion() }

// ExactGraphSize exposes the in-memory graph size for ablation benchmarks.
func (f *HybridFinder) ExactGraphSize() int { return f.exact.GraphSize() }
