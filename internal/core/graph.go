package core

import "sort"

// PrecedenceGraph models token dependencies (§3.1). Every committed version
// is a vertex; a directed edge goes from token B-n to A-m if B-n depends on
// A-m by precedence (a session completed an operation in A-m immediately
// before issuing one in B-n). A set of tokens forms a DPR-cut iff it is
// closed under the transitive dependency relation.
//
// The graph additionally tracks which tokens are durable (their StateObject
// reported the checkpoint persistent); only closures consisting entirely of
// durable tokens may enter the cut.
//
// PrecedenceGraph is not safe for concurrent use; finders serialize access.
type PrecedenceGraph struct {
	// deps maps a token to its direct dependencies. A token's predecessor
	// version on the same worker is an implicit dependency and is added
	// explicitly on insert so closures always contain whole prefixes.
	deps map[Token][]Token
	// durable marks tokens whose version is reported persistent.
	durable map[Token]bool
	// maxSeen tracks the largest inserted version per worker, used to prune.
	maxSeen map[WorkerID]Version
	// byWorker holds each worker's inserted, not-yet-pruned versions in
	// increasing order (per-worker reports arrive in version order). Pruning
	// below an advancing cut pops a prefix of the affected workers' lists
	// instead of scanning every token in the graph, so prune cost is
	// O(tokens actually removed), not O(total graph size).
	byWorker map[WorkerID][]Version
}

// NewPrecedenceGraph returns an empty graph.
func NewPrecedenceGraph() *PrecedenceGraph {
	return &PrecedenceGraph{
		deps:     make(map[Token][]Token),
		durable:  make(map[Token]bool),
		maxSeen:  make(map[WorkerID]Version),
		byWorker: make(map[WorkerID][]Version),
	}
}

// Add inserts token t with direct dependencies ds and marks it durable.
// StateObjects report a version only after its checkpoint persists, so
// insertion and durability coincide (§3.3: "Each StateObject adds a version
// and its dependencies to the precedence graph after each local checkpoint").
// The implicit dependency on the worker's previous *reported* version is
// added so per-worker prefixes stay dependency-closed. It must be the
// previous report, not v-1: versions are Lamport-bumped by dependencies and
// fast-forwarded to Vmax, so a worker's version numbers legitimately skip —
// an implicit edge to a version that never existed would block the closure
// forever.
func (g *PrecedenceGraph) Add(t Token, ds []Token) {
	if t.Version == 0 {
		return // version 0 is the empty pre-history, always durable
	}
	all := make([]Token, 0, len(ds)+1)
	if prev := g.prevReported(t.Worker, t.Version); prev > 0 {
		all = append(all, Token{Worker: t.Worker, Version: prev})
	}
	for _, d := range ds {
		if d.Version == 0 || d == t {
			continue
		}
		all = append(all, d)
	}
	g.deps[t] = all
	g.durable[t] = true
	if t.Version > g.maxSeen[t.Worker] {
		g.maxSeen[t.Worker] = t.Version
		g.byWorker[t.Worker] = append(g.byWorker[t.Worker], t.Version)
	} else {
		// Out-of-order insert: a worker that rolled back reports versions
		// at or below ones it reported before the failure (the chaos
		// sweep's exact-finder seeds reach this). Keep the list sorted.
		vs := g.byWorker[t.Worker]
		i := sort.Search(len(vs), func(i int) bool { return vs[i] >= t.Version })
		if i == len(vs) || vs[i] != t.Version {
			vs = append(vs, 0)
			copy(vs[i+1:], vs[i:])
			vs[i] = t.Version
			g.byWorker[t.Worker] = vs
		}
	}
}

// prevReported returns worker w's largest inserted version below v (0 if
// none). Pruned predecessors are at or below the cut, so returning a smaller
// (or zero) version for them is safe: the traversal skips cut-covered tokens
// before resolving them.
func (g *PrecedenceGraph) prevReported(w WorkerID, v Version) Version {
	if m := g.maxSeen[w]; m < v {
		return m
	}
	vs := g.byWorker[w]
	i := sort.Search(len(vs), func(i int) bool { return vs[i] >= v })
	if i == 0 {
		return 0
	}
	return vs[i-1]
}

// Durable reports whether t has been reported persistent. Version 0 is
// trivially durable.
func (g *PrecedenceGraph) Durable(t Token) bool {
	return t.Version == 0 || g.durable[t]
}

// Known reports whether t's dependency list has been recorded.
func (g *PrecedenceGraph) Known(t Token) bool {
	if t.Version == 0 {
		return true
	}
	_, ok := g.deps[t]
	return ok
}

// DependencySet performs the paper's BuildDependencySet: a breadth-first
// traversal from t returning every token reachable through dependency edges
// (including t itself), stopping at tokens already inside base (they are
// known recoverable and need not be revisited). The second return value is
// false if the traversal reached a token whose dependencies are unknown or
// not durable — in that case t cannot yet join the cut.
//
//dpr:ignore cut-worldline graph algebra is world-line-local; the owning finder is reset across recoveries so tokens never mix world-lines
func (g *PrecedenceGraph) DependencySet(t Token, base Cut) ([]Token, bool) {
	if base.Includes(t) {
		return nil, true
	}
	visited := map[Token]bool{t: true}
	queue := []Token{t}
	out := []Token{t}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		ds, ok := g.deps[cur]
		if !ok {
			if cur.Version == 0 {
				continue
			}
			return nil, false // dependency information missing
		}
		for _, d := range ds {
			if visited[d] || base.Includes(d) {
				continue
			}
			if !g.Durable(d) {
				return nil, false
			}
			visited[d] = true
			queue = append(queue, d)
			out = append(out, d)
		}
	}
	return out, true
}

// MaxVersion returns the largest version inserted for worker w.
func (g *PrecedenceGraph) MaxVersion(w WorkerID) Version { return g.maxSeen[w] }

// Workers returns the ids of all workers with at least one inserted token.
func (g *PrecedenceGraph) Workers() []WorkerID {
	out := make([]WorkerID, 0, len(g.maxSeen))
	for w := range g.maxSeen {
		out = append(out, w)
	}
	return out
}

// PruneBelow drops all tokens at or below the cut; they can never be needed
// again because cuts only advance. This bounds graph memory to the
// uncommitted frontier. Cost is O(workers + tokens removed): the per-worker
// version lists are popped from the front, never scanned past the cut.
//
//dpr:ignore cut-worldline graph algebra is world-line-local; the owning finder is reset across recoveries so tokens never mix world-lines
func (g *PrecedenceGraph) PruneBelow(cut Cut) {
	for w := range g.byWorker {
		g.PruneWorkerBelow(w, cut.Get(w))
	}
}

// PruneWorkerBelow drops worker w's tokens at or below v. Finders call it
// incrementally for exactly the workers whose cut position advanced, keeping
// prune cost proportional to the tokens that actually left the frontier
// rather than to total graph size.
func (g *PrecedenceGraph) PruneWorkerBelow(w WorkerID, v Version) {
	vs := g.byWorker[w]
	i := 0
	for ; i < len(vs) && vs[i] <= v; i++ {
		t := Token{Worker: w, Version: vs[i]}
		delete(g.deps, t)
		delete(g.durable, t)
	}
	if i == 0 {
		return
	}
	if i == len(vs) {
		delete(g.byWorker, w)
		return
	}
	g.byWorker[w] = vs[i:]
}

// Size returns the number of tracked (not yet pruned) tokens.
func (g *PrecedenceGraph) Size() int { return len(g.deps) }
