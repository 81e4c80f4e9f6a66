package core

import "sync"

// ApproximateFinder implements the approximate algorithm of §3.4:
// StateObjects write only committed version numbers (dependency information
// is discarded), and the DPR-cut consists of all tokens at or below Vmin,
// the smallest persisted version across workers. Correct because the
// progress rule guarantees no version depends on a larger version; imprecise
// because it introduces false dependencies between workers that never
// interacted.
//
// The finder also tracks Vmax so lagging workers can fast-forward their next
// checkpoint and catch up in bounded time.
//
//dpr:ignore cut-worldline finders are world-line-local by design (§3 separates progress from recovery); metadata.Store owns the (world-line, cut) pairing and resets finders across recoveries
type ApproximateFinder struct {
	mu        sync.Mutex
	persisted map[WorkerID]Version
	cut       Cut
	maxV      Version
	// vmin/atMin maintain min(persisted) incrementally: vmin is the current
	// minimum and atMin counts the workers sitting exactly at it. A report
	// that lifts a non-minimal worker is O(1); one that lifts the last
	// worker off the minimum rescans once — amortized O(1) per report
	// instead of a table scan per report.
	vmin  Version
	atMin int
}

// NewApproximateFinder returns an empty ApproximateFinder.
func NewApproximateFinder() *ApproximateFinder {
	return &ApproximateFinder{
		persisted: make(map[WorkerID]Version),
		cut:       make(Cut),
	}
}

// AddWorker registers w; until w reports, the global Vmin is pinned at w's
// last known version (0 for a fresh worker), exactly like inserting a row
// with persistedVersion=0 into the paper's dpr table.
func (f *ApproximateFinder) AddWorker(w WorkerID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.persisted[w]; !ok {
		f.setPersistedLocked(w, 0)
	}
}

// Report records that w persisted v. Dependency information is discarded.
func (f *ApproximateFinder) Report(w WorkerID, v Version, _ []Token) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v > f.persisted[w] {
		f.setPersistedLocked(w, v)
	}
	if v > f.maxV {
		f.maxV = v
	}
}

// setPersistedLocked updates w's row to v and maintains vmin/atMin and the
// cut. Caller holds f.mu and guarantees v is an increase (or an insert).
func (f *ApproximateFinder) setPersistedLocked(w WorkerID, v Version) {
	old, existed := f.persisted[w]
	f.persisted[w] = v
	switch {
	case len(f.persisted) == 1: // first row
		f.vmin, f.atMin = v, 1
		f.applyMinLocked()
	case !existed: // new row: may lower (never raise) Vmin
		if v < f.vmin {
			f.vmin, f.atMin = v, 1
		} else if v == f.vmin {
			f.atMin++
		}
		// Every registered worker's prefix up to Vmin is in the cut; that
		// includes the new row regardless of its own persisted position.
		if f.vmin > f.cut[w] {
			f.cut[w] = f.vmin
		}
	default: // existing row rose: Vmin advances once its last holder leaves
		if old == f.vmin {
			f.atMin--
			if f.atMin == 0 {
				f.rescanMinLocked()
			}
		}
	}
}

// rescanMinLocked recomputes vmin/atMin with a full scan (only when the last
// worker left the old minimum) and folds the new minimum into the cut.
func (f *ApproximateFinder) rescanMinLocked() {
	vmin := Version(1<<63 - 1)
	for _, v := range f.persisted {
		if v < vmin {
			vmin = v
		}
	}
	f.atMin = 0
	for _, v := range f.persisted {
		if v == vmin {
			f.atMin++
		}
	}
	f.vmin = vmin
	f.applyMinLocked()
}

// applyMinLocked raises every registered worker's cut position to Vmin
// (SELECT min(persistedVersion) FROM dpr). Positions never regress: a worker
// that already reported past an old Vmin keeps its recoverability. Runs only
// when Vmin actually advances, so its O(workers) cost is amortized over the
// full round of reports that produced the advance.
func (f *ApproximateFinder) applyMinLocked() {
	if f.vmin == 0 {
		return
	}
	for w := range f.persisted {
		if f.vmin > f.cut[w] {
			f.cut[w] = f.vmin
		}
	}
}

// CurrentCut returns a copy of the latest cut.
//
//dpr:ignore cut-worldline finder cuts are world-line-local; metadata.Store tags them before they travel
func (f *ApproximateFinder) CurrentCut() Cut {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cut.Clone()
}

// MergeCutInto raises dst to include this finder's cut without cloning,
// returning true if any position advanced.
//
//dpr:ignore cut-worldline finder cuts are world-line-local; metadata.Store tags them before they travel
func (f *ApproximateFinder) MergeCutInto(dst Cut) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return dst.Merge(f.cut)
}

// MaxVersion returns Vmax, the largest persisted version in the table.
func (f *ApproximateFinder) MaxVersion() Version {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.maxV
}
