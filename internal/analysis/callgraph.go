package analysis

import (
	"go/ast"
	"go/types"
)

// callGraph is the unit-wide static call graph that turns the per-function
// checkers into a whole-program pass. Nodes are the declared functions of
// the module (FuncDecls with bodies); edges are call sites resolved through
// go/types:
//
//   - direct calls to package functions and concrete methods resolve to the
//     single declared callee;
//   - calls through an interface method resolve to the method on every
//     concrete named type in the unit that implements the interface (the
//     unit is the whole module, so this is the complete in-module dispatch
//     set — stdlib implementations are invisible and conservatively absent);
//   - calls through function values (fields, parameters, locals) stay
//     unresolved: propagation simply stops there.
//
// A `go` statement is not a synchronous edge — the spawned work does not run
// on the caller's stack, so held locks and entered epoch slots do not flow
// into it. Deferred calls are synchronous (they run before the caller
// returns) and function-literal bodies that are not go-spawned are attributed
// to their enclosing declaration.
type callGraph struct {
	u      *Unit
	spanOf map[*types.Func]*funcSpan     // declared funcs with bodies
	out    map[*types.Func][]*types.Func // deduped synchronous edges
	// siteCallees resolves every call expression in the unit (including
	// those inside go-spawned literals) to its declared in-unit targets.
	siteCallees map[*ast.CallExpr][]*types.Func
	named       []*types.Named // concrete named types in the unit
	implCache   map[*types.Func][]*types.Func
	closures    map[*types.Func]map[*types.Func]bool
}

// unitGraph builds (once) and returns the unit's call graph.
func unitGraph(u *Unit) *callGraph {
	if u.cache.graph != nil {
		return u.cache.graph
	}
	g := &callGraph{
		u:           u,
		spanOf:      make(map[*types.Func]*funcSpan),
		out:         make(map[*types.Func][]*types.Func),
		siteCallees: make(map[*ast.CallExpr][]*types.Func),
		implCache:   make(map[*types.Func][]*types.Func),
		closures:    make(map[*types.Func]map[*types.Func]bool),
	}
	funcs := declaredFuncs(u)
	for i := range funcs {
		fs := &funcs[i]
		if fn, ok := fs.pkg.Info.Defs[fs.decl.Name].(*types.Func); ok {
			g.spanOf[fn] = fs
		}
	}
	for _, p := range u.Packages {
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := n.Underlying().(*types.Interface); isIface {
				continue
			}
			g.named = append(g.named, n)
		}
	}
	for i := range funcs {
		fs := &funcs[i]
		fn, ok := fs.pkg.Info.Defs[fs.decl.Name].(*types.Func)
		if !ok {
			continue
		}
		g.walkBody(fs, fn, fs.decl.Body, false)
	}
	u.cache.graph = g
	return g
}

// walkBody collects call edges from one body. async marks a go-spawned
// subtree: its calls are resolved into siteCallees (the lock summaries of the
// spawned literal look them up) but do not become synchronous edges of the
// enclosing declaration.
func (g *callGraph) walkBody(fs *funcSpan, from *types.Func, body ast.Node, async bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.GoStmt:
			g.walkBody(fs, from, node.Call, true)
			return false
		case *ast.CallExpr:
			targets := g.resolveCall(fs.pkg, node)
			if len(targets) > 0 {
				g.siteCallees[node] = targets
				if !async {
					g.addEdges(from, targets)
				}
			}
		}
		return true
	})
}

func (g *callGraph) addEdges(from *types.Func, to []*types.Func) {
	existing := g.out[from]
	for _, t := range to {
		dup := false
		for _, e := range existing {
			if e == t {
				dup = true
				break
			}
		}
		if !dup {
			existing = append(existing, t)
		}
	}
	g.out[from] = existing
}

// resolveCall maps a call expression to declared in-unit targets.
func (g *callGraph) resolveCall(p *Package, call *ast.CallExpr) []*types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = p.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = p.Info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			return g.implementations(fn, iface)
		}
	}
	if _, ok := g.spanOf[fn]; ok {
		return []*types.Func{fn}
	}
	return nil
}

// implementations resolves an interface method to the same-named method on
// every concrete in-unit type implementing the interface.
func (g *callGraph) implementations(ifaceMethod *types.Func, iface *types.Interface) []*types.Func {
	if impls, ok := g.implCache[ifaceMethod]; ok {
		return impls
	}
	var impls []*types.Func
	for _, n := range g.named {
		ptr := types.NewPointer(n)
		if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, n.Obj().Pkg(), ifaceMethod.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if _, declared := g.spanOf[m]; declared {
			impls = append(impls, m)
		}
	}
	g.implCache[ifaceMethod] = impls
	return impls
}

// closure returns every function reachable from fn over synchronous call
// edges, fn included. One plain DFS per queried source, cached.
func (g *callGraph) closure(fn *types.Func) map[*types.Func]bool {
	if c, ok := g.closures[fn]; ok {
		return c
	}
	c := map[*types.Func]bool{fn: true}
	stack := []*types.Func{fn}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range g.out[cur] {
			if !c[next] {
				c[next] = true
				stack = append(stack, next)
			}
		}
	}
	g.closures[fn] = c
	return c
}

// reachesAny reports the first of targets reachable from fn.
func (g *callGraph) reachesAny(fn *types.Func, targets map[*types.Func]bool) (*types.Func, bool) {
	c := g.closure(fn)
	for t := range targets {
		if c[t] {
			return t, true
		}
	}
	return nil, false
}
