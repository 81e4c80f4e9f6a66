package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// LockOrderGlobalChecker is the whole-program half of the lock-order
// discipline. The mutex checker validates acquisitions against the declared
// //dpr:lockorder graph within a single function; this checker propagates
// held-lock sets across the call graph (including interface dispatch, so a
// worker's rollback lock held across a StateObject.Restore reaches the
// store locks of every implementation) and reports:
//
//  1. interprocedural order violations — a call made with lock H held
//     transitively acquires lock A where the declared order says A < H;
//
//  2. undeclared nestings between declared locks — H held while a callee
//     acquires A, both locks appear in the //dpr:lockorder graph, but no
//     declared relation covers the pair. Either direction of such a nesting
//     can land first; declaring the intended order makes the inverse a
//     violation everywhere;
//
//  3. cycle candidates — lock classes A and B observed nested both ways
//     anywhere in the module (at least one of the two edges crossing a
//     function boundary), the classic lockdep ABBA shape.
//
// Only keyed locks (owner-qualified: "pkg.Type.field" or a package-level
// mutex) participate: anonymous locals such as index stripe locks have no
// module-wide identity, and cross-instance nesting of one lock class (hand-
// over-hand, two-account transfers) is instance-dependent, so self-edges
// are ignored.
type LockOrderGlobalChecker struct{}

func (*LockOrderGlobalChecker) Name() string { return "lock-order-global" }

// acquireRef is one lock class a function (transitively) acquires.
type acquireRef struct {
	typeKey string
	pos     token.Pos
}

// nestEdge records one witnessed "from held while to acquired" nesting.
type nestEdge struct {
	pos       token.Pos // witness: the acquisition or the propagating call
	interproc bool
}

func (c *LockOrderGlobalChecker) Run(u *Unit) []Diagnostic {
	order, _ := parseLockOrder(u) // malformed directives are the mutex checker's diagnostics
	g := unitGraph(u)
	ls := unitLockSummaries(u)

	declared := make(map[string]bool)
	for a, bs := range order.before {
		declared[a] = true
		for b := range bs {
			declared[b] = true
		}
	}

	transMemo := make(map[*types.Func][]acquireRef)
	transAcquires := func(fn *types.Func) []acquireRef {
		if refs, ok := transMemo[fn]; ok {
			return refs
		}
		seen := make(map[string]bool)
		var refs []acquireRef
		for member := range g.closure(fn) {
			sum, ok := ls.byFunc[member]
			if !ok {
				continue
			}
			for _, acq := range sum.acquires {
				if acq.op.keyed && !seen[acq.op.typeKey] {
					seen[acq.op.typeKey] = true
					refs = append(refs, acquireRef{typeKey: acq.op.typeKey, pos: acq.pos})
				}
			}
		}
		sort.Slice(refs, func(i, j int) bool { return refs[i].typeKey < refs[j].typeKey })
		transMemo[fn] = refs
		return refs
	}

	type edgeKey struct{ from, to string }
	edges := make(map[edgeKey]nestEdge)
	addEdge := func(k edgeKey, e nestEdge) {
		if prev, ok := edges[k]; ok {
			// Keep the first witness; upgrade to an interprocedural one.
			if !prev.interproc && e.interproc {
				edges[k] = e
			}
			return
		}
		edges[k] = e
	}

	var diags []Diagnostic
	reportedUndeclared := make(map[edgeKey]bool)

	// Intra-function direct nestings feed the cycle graph only: the mutex
	// checker already validates them against the declared order.
	for _, sum := range ls.all {
		for _, acq := range sum.acquires {
			if !acq.op.keyed {
				continue
			}
			for _, h := range acq.held {
				if h.keyed && h.typeKey != acq.op.typeKey {
					addEdge(edgeKey{h.typeKey, acq.op.typeKey},
						nestEdge{pos: acq.pos})
				}
			}
		}
	}

	// Interprocedural propagation: held sets flow into resolved callees.
	for _, sum := range ls.all {
		for _, ch := range sum.calls {
			seenPair := make(map[edgeKey]bool)
			for _, callee := range g.siteCallees[ch.call] {
				calleeName := calleeName(g, callee)
				for _, acq := range transAcquires(callee) {
					for _, h := range ch.held {
						if !h.keyed || h.typeKey == acq.typeKey {
							continue
						}
						k := edgeKey{h.typeKey, acq.typeKey}
						if seenPair[k] {
							continue
						}
						seenPair[k] = true
						addEdge(k, nestEdge{pos: ch.pos, interproc: true})
						if declPos, bad := order.mustPrecede(acq.typeKey, h.typeKey); bad {
							diags = append(diags, Diagnostic{
								Pos:   u.Position(ch.pos),
								Check: c.Name(),
								Message: fmt.Sprintf("call to %s acquires %s (at %s) while holding %s, violating //dpr:lockorder %s < %s (declared at %s)",
									calleeName, acq.typeKey, u.Position(acq.pos), h.typeKey,
									acq.typeKey, h.typeKey, u.Position(declPos)),
							})
							continue
						}
						if _, ok := order.mustPrecede(h.typeKey, acq.typeKey); ok {
							continue // nesting matches the declared order
						}
						if declared[h.typeKey] && declared[acq.typeKey] && !reportedUndeclared[k] {
							reportedUndeclared[k] = true
							diags = append(diags, Diagnostic{
								Pos:   u.Position(ch.pos),
								Check: c.Name(),
								Message: fmt.Sprintf("undeclared cross-function lock nesting: %s is held while the call to %s acquires %s (at %s); both locks are in the //dpr:lockorder graph but no order relates them — declare //dpr:lockorder %s < %s if this nesting is intended",
									h.typeKey, calleeName, acq.typeKey, u.Position(acq.pos),
									h.typeKey, acq.typeKey),
							})
						}
					}
				}
			}
		}
	}

	// Cycle candidates: both directions observed, at least one crossing a
	// function boundary, and not already covered by a declared order (those
	// surface as violations above or in the mutex checker).
	var keys []edgeKey
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		if k.from >= k.to {
			continue // report each unordered pair once
		}
		fwd := edges[k]
		rev, ok := edges[edgeKey{k.to, k.from}]
		if !ok || (!fwd.interproc && !rev.interproc) {
			continue
		}
		if _, d1 := order.mustPrecede(k.from, k.to); d1 {
			continue
		}
		if _, d2 := order.mustPrecede(k.to, k.from); d2 {
			continue
		}
		at := fwd
		if !at.interproc {
			at = rev
		}
		diags = append(diags, Diagnostic{
			Pos:   u.Position(at.pos),
			Check: c.Name(),
			Message: fmt.Sprintf("lock-order cycle candidate: %s is acquired while %s is held (%s) and %s is acquired while %s is held (%s); declare a //dpr:lockorder to fix one order",
				k.to, k.from, u.Position(fwd.pos), k.from, k.to, u.Position(rev.pos)),
		})
	}
	return diags
}
