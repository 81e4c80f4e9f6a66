package core

import "sync"

// Finder computes DPR-guarantees: it consumes version reports from
// StateObjects and produces monotonically advancing DPR-cuts (§3.3, §3.4).
// Implementations must be safe for concurrent use.
type Finder interface {
	// Report records that worker w persisted version v, whose execution
	// observed the given direct dependencies. Reports for the same worker
	// must arrive in increasing version order.
	Report(w WorkerID, v Version, deps []Token)
	// CurrentCut returns the latest known DPR-cut. The returned cut must not
	// be mutated by the caller.
	//dpr:ignore cut-worldline the Finder abstraction is world-line-local; metadata.Store pairs its cut with the current world-line
	CurrentCut() Cut
	// MaxVersion returns the largest version any worker has reported (Vmax
	// in §3.4), which lagging workers use to fast-forward their checkpoints.
	MaxVersion() Version
	// AddWorker registers a worker so the cut accounts for it. A cut never
	// advances past a registered worker that has not reported. It is
	// idempotent: a restarted worker registers its id again.
	AddWorker(w WorkerID)
}

// ExactFinder implements the exact algorithm of §3.3: it maintains the full
// precedence graph and advances the cut by finding maximal durable transitive
// closures. It is precise — the cut includes every token whose closure is
// durable — at the cost of storing the graph.
//
//dpr:ignore cut-worldline finders are world-line-local by design; metadata.Store owns the (world-line, cut) pairing and resets finders across recoveries
type ExactFinder struct {
	mu    sync.Mutex
	graph *PrecedenceGraph
	cut   Cut
	maxV  Version
	// frontier holds durable tokens not yet in the cut, per worker, in
	// version order; the finder repeatedly tries to extend each worker's
	// prefix. A worker with no unfolded tokens has NO entry — the advance
	// scan iterates only workers with outstanding work (the active
	// frontier), so a report costs O(active), not O(every worker ever seen).
	frontier map[WorkerID][]Token
	// advanced is a reusable scratch set of workers whose cut position moved
	// during one advance pass; only those workers' graph regions are pruned.
	advanced map[WorkerID]struct{}
}

// NewExactFinder returns an ExactFinder with an empty history.
func NewExactFinder() *ExactFinder {
	return &ExactFinder{
		graph:    NewPrecedenceGraph(),
		cut:      make(Cut),
		frontier: make(map[WorkerID][]Token),
		advanced: make(map[WorkerID]struct{}),
	}
}

// AddWorker registers w at cut position 0 unless it already has one.
func (f *ExactFinder) AddWorker(w WorkerID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.cut[w]; !ok {
		f.cut[w] = 0
	}
}

// Report records a persisted version and immediately attempts to advance the
// cut. The paper's coordinator runs FindDpr periodically; folding the scan
// into Report keeps the finder deterministic for testing while performing
// the same computation.
func (f *ExactFinder) Report(w WorkerID, v Version, deps []Token) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := Token{Worker: w, Version: v}
	f.graph.Add(t, deps)
	f.frontier[w] = append(f.frontier[w], t)
	if v > f.maxV {
		f.maxV = v
	}
	f.advanceLocked()
}

// advanceLocked implements FindDpr: for each frontier token in version order,
// build its dependency set; if fully durable, fold the closure into the cut.
// Repeats until no token can be added (a closure admitted for one worker can
// unblock another's). Only workers with outstanding frontier tokens are
// visited, and only workers whose cut position advanced are pruned — a
// report's cost is proportional to the active frontier, never to the total
// number of workers or tokens ever seen.
func (f *ExactFinder) advanceLocked() {
	for {
		progressed := false
		for w, pending := range f.frontier {
			i := 0
			for ; i < len(pending); i++ {
				t := pending[i]
				closure, ok := f.graph.DependencySet(t, f.cut)
				if !ok {
					break // earlier versions block later ones on same worker
				}
				for _, ct := range closure {
					if ct.Version > f.cut[ct.Worker] {
						f.cut[ct.Worker] = ct.Version
						f.advanced[ct.Worker] = struct{}{}
					}
				}
				// A token already covered by the cut produced an empty
				// closure; its graph region is reclaimed by the prune below.
				f.advanced[w] = struct{}{}
				progressed = true
			}
			switch {
			case i == len(pending):
				delete(f.frontier, w)
			case i > 0:
				f.frontier[w] = pending[i:]
			}
		}
		if !progressed {
			break
		}
	}
	for w := range f.advanced {
		f.graph.PruneWorkerBelow(w, f.cut[w])
		delete(f.advanced, w)
	}
}

// CurrentCut returns a copy of the latest cut.
//
//dpr:ignore cut-worldline finder cuts are world-line-local; metadata.Store tags them before they travel
func (f *ExactFinder) CurrentCut() Cut {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cut.Clone()
}

// MaxVersion returns the largest reported version.
func (f *ExactFinder) MaxVersion() Version {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.maxV
}

// MergeCutInto raises dst to include this finder's cut without cloning,
// returning true if any position advanced. Used by HybridFinder to refresh
// its merged cut allocation-free on every report.
//
//dpr:ignore cut-worldline finder cuts are world-line-local; metadata.Store tags them before they travel
func (f *ExactFinder) MergeCutInto(dst Cut) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return dst.Merge(f.cut)
}

// GraphSize reports the number of tokens currently retained (frontier not yet
// folded into the cut); exported for the finder ablation benchmarks.
func (f *ExactFinder) GraphSize() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.graph.Size()
}
