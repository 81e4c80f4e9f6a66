package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the unit's held-lock summaries: for every declared
// function, the lock acquisitions it performs and the calls it makes with
// the abstract held-lock set in force at that point (computed by the same
// flow.go walker the mutex checker uses, so branch merges intersect and the
// sets are must-hold). The summaries plus the call graph are what
// make the lock-order-global and epoch-discipline checkers whole-program:
// held sets propagate across call edges instead of dying at function
// boundaries.

// heldRef is one lock in a held-at snapshot.
type heldRef struct {
	typeKey string
	keyed   bool
	pos     token.Pos // acquisition site
}

// acquireSite is a lock acquisition with the locks already held there.
type acquireSite struct {
	op   flowOp
	pos  token.Pos
	held []heldRef
}

// callHeld is a non-lock call made while at least one lock is held.
type callHeld struct {
	call *ast.CallExpr
	pos  token.Pos
	held []heldRef
}

// funcLockSummary is the per-declaration summary. Go-spawned function
// literals get their own summaries (async=true): their acquisitions are
// real nesting-graph edges but must not be attributed to the spawning
// function's synchronous behavior.
type funcLockSummary struct {
	fs       *funcSpan
	fn       *types.Func // nil for async literal summaries
	async    bool
	acquires []acquireSite
	calls    []callHeld
}

type lockSummaries struct {
	byFunc map[*types.Func]*funcLockSummary
	all    []*funcLockSummary // deterministic order: declaredFuncs order
}

// unitLockSummaries builds (once) the whole-unit lock summaries.
func unitLockSummaries(u *Unit) *lockSummaries {
	if u.cache.summaries != nil {
		return u.cache.summaries
	}
	ls := &lockSummaries{byFunc: make(map[*types.Func]*funcLockSummary)}
	funcs := declaredFuncs(u)
	for i := range funcs {
		fs := &funcs[i]
		fn, ok := fs.pkg.Info.Defs[fs.decl.Name].(*types.Func)
		if !ok {
			continue
		}
		sum := &funcLockSummary{fs: fs, fn: fn}
		asyncSum := &funcLockSummary{fs: fs, async: true}
		target := sum
		flow := &heldFlow{pkg: fs.pkg, classify: classifyLockCall}
		flow.onAcquire = func(call *ast.CallExpr, op flowOp, st *flowState) {
			var others []heldRef
			for _, h := range snapshotHeld(st) {
				if h.typeKey != op.typeKey {
					others = append(others, h)
				}
			}
			target.acquires = append(target.acquires, acquireSite{op: op, pos: call.Pos(), held: others})
		}
		flow.onStmt = func(s ast.Stmt, st *flowState) {
			held := snapshotHeld(st)
			if len(held) == 0 {
				return
			}
			embedded(s, func(n ast.Node) {
				if call, ok := n.(*ast.CallExpr); ok {
					if _, isLock := classifyLockCall(fs.pkg, call); !isLock {
						target.calls = append(target.calls, callHeld{call: call, pos: call.Pos(), held: held})
					}
				}
			})
		}
		flow.walk(fs.decl.Body)
		for _, lit := range collectFuncLits(fs.decl.Body) {
			target = sum
			if lit.async {
				target = asyncSum
			}
			flow.walk(lit.lit.Body)
		}
		ls.byFunc[fn] = sum
		ls.all = append(ls.all, sum)
		if len(asyncSum.acquires) > 0 || len(asyncSum.calls) > 0 {
			ls.all = append(ls.all, asyncSum)
		}
	}
	u.cache.summaries = ls
	return ls
}

type litAt struct {
	lit   *ast.FuncLit
	async bool // defined under a `go` statement subtree
}

// collectFuncLits finds every function literal in body, flagging those that
// live under a `go` statement (their activations are not the enclosing
// function's synchronous work).
func collectFuncLits(body *ast.BlockStmt) []litAt {
	var out []litAt
	var walk func(n ast.Node, async bool)
	walk = func(n ast.Node, async bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch cn := c.(type) {
			case *ast.GoStmt:
				if cn != n {
					walk(cn.Call, true)
					return false
				}
			case *ast.FuncLit:
				if cn != n {
					out = append(out, litAt{lit: cn, async: async})
					walk(cn.Body, async)
					return false
				}
			}
			return true
		})
	}
	walk(body, false)
	return out
}

// snapshotHeld renders the held map as a deduped, deterministic slice.
func snapshotHeld(st *flowState) []heldRef {
	if len(st.held) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(st.held))
	out := make([]heldRef, 0, len(st.held))
	for _, h := range st.held {
		if seen[h.op.typeKey] {
			continue
		}
		seen[h.op.typeKey] = true
		out = append(out, heldRef{typeKey: h.op.typeKey, keyed: h.op.keyed, pos: h.pos})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].typeKey < out[j].typeKey })
	return out
}

// unitDrainCoupled computes the set of keyed locks that some function holds
// across a (transitive) epoch drain: taking such a lock inside an
// epoch-protected section closes the deadlock loop, because the drain the
// lock holder is waiting on cannot finish until the entered slot exits. The
// map records the first witness position (the drain-reaching call made with
// the lock held).
func unitDrainCoupled(u *Unit) map[string]token.Pos {
	if u.cache.drainCoupled != nil {
		return u.cache.drainCoupled
	}
	g := unitGraph(u)
	targets := drainTargets(u)
	coupled := make(map[string]token.Pos)
	for _, sum := range unitLockSummaries(u).all {
		for _, ch := range sum.calls {
			hit := false
			for _, callee := range g.siteCallees[ch.call] {
				if _, ok := g.reachesAny(callee, targets); ok {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			for _, h := range ch.held {
				if h.keyed {
					if _, dup := coupled[h.typeKey]; !dup {
						coupled[h.typeKey] = ch.pos
					}
				}
			}
		}
	}
	u.cache.drainCoupled = coupled
	return coupled
}

// drainTargets lists the declared blocking-drain entry points: Drain and
// WaitObserved on epoch.Table (matched by last path segment, so fixtures
// can declare a miniature epoch package).
func drainTargets(u *Unit) map[*types.Func]bool {
	g := unitGraph(u)
	targets := make(map[*types.Func]bool)
	for fn := range g.spanOf {
		if fn.Name() != "Drain" && fn.Name() != "WaitObserved" {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		if isEpochTable(sig.Recv().Type()) {
			targets[fn] = true
		}
	}
	return targets
}
