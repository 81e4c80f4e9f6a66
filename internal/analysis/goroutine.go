package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineChecker enforces goroutine lifecycle discipline in the serving
// stack: every `go` statement in the serve, listen, dfaster, dredis, libdpr,
// metadata, migration and baseline packages must have a stop path reachable
// from its owner's Stop/Close — otherwise the goroutine leaks past shutdown
// and can wedge it (the PR 1 Worker.Stop hang class). Accepted evidence,
// gathered from the spawned body and the functions it calls (through the
// unit call graph):
//
//   - a joined WaitGroup: the body calls Done() on a WaitGroup that some
//     function in the module Waits on;
//   - a done channel: the body receives from (or selects on, or ranges
//     over) a channel that some function closes, or from a context's
//     Done();
//   - an owner-closed connection: the goroutine works on a net.Conn or
//     net.Listener (tracked conn, accept loop, pipe) and the owner type's
//     Stop/Close/Shutdown reaches a Close() on such a value, so blocking
//     reads unblock with an error at shutdown.
//
// Evidence is deliberately coarse — the checker's job is catching the
// total absence of any stop mechanism, not validating the mechanism's
// correctness. A by-design fire-and-forget goroutine documents itself with
// //dpr:ignore.
type GoroutineChecker struct{}

func (*GoroutineChecker) Name() string { return "goroutine-lifecycle" }

// goroutineScope lists the server packages under lifecycle discipline
// (matched by package name, so fixtures can declare mini packages).
var goroutineScope = map[string]bool{
	"serve": true, "listen": true, "dfaster": true, "dredis": true, "libdpr": true,
	"metadata": true, "migration": true, "baseline": true,
}

// stopMethodNames are the owner entry points a stop path must hang off.
var stopMethodNames = map[string]bool{
	"Stop": true, "Close": true, "Shutdown": true,
}

func (c *GoroutineChecker) Run(u *Unit) []Diagnostic {
	g := unitGraph(u)
	ev := newLifecycleEvidence(u, g)
	var diags []Diagnostic
	for _, site := range g.goSites {
		if !goroutineScope[site.fs.pkg.Name] {
			continue
		}
		pos := u.Position(site.stmt.Pos())
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		if ev.hasStopPath(site) {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:     pos,
			Check:   c.Name(),
			Message: "go statement has no stop path reachable from an owner Stop/Close: no joined WaitGroup (Done+Wait), no receive on a closed done channel, and no owner-closed conn/listener — the goroutine can leak past shutdown and wedge Stop",
		})
	}
	return diags
}

// lifecycleEvidence holds the unit-wide facts the per-site scan consults.
type lifecycleEvidence struct {
	u      *Unit
	g      *callGraph
	waited map[types.Object]bool // WaitGroups with a Wait() call somewhere
	closed map[types.Object]bool // channels with a close() call somewhere
	// netClosers: declared functions whose body closes a net.Conn/Listener.
	netClosers map[*types.Func]bool
	ownerMemo  map[*types.Named]bool
}

func newLifecycleEvidence(u *Unit, g *callGraph) *lifecycleEvidence {
	ev := &lifecycleEvidence{
		u: u, g: g,
		waited:     make(map[types.Object]bool),
		closed:     make(map[types.Object]bool),
		netClosers: make(map[*types.Func]bool),
		ownerMemo:  make(map[*types.Named]bool),
	}
	funcs := declaredFuncs(u)
	for i := range funcs {
		fs := &funcs[i]
		fn, _ := fs.pkg.Info.Defs[fs.decl.Name].(*types.Func)
		ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "close" && len(call.Args) == 1 {
					if obj := referencedObject(fs.pkg, call.Args[0]); obj != nil {
						ev.closed[obj] = true
					}
				}
			case *ast.SelectorExpr:
				switch fun.Sel.Name {
				case "Wait":
					if m, ok := fs.pkg.Info.Uses[fun.Sel].(*types.Func); ok && isWaitGroupMethod(m) {
						if obj := referencedObject(fs.pkg, fun.X); obj != nil {
							ev.waited[obj] = true
						}
					}
				case "Close", "close", "closeAll":
					if fn != nil && closesNetValue(fs.pkg, fun) {
						ev.netClosers[fn] = true
					}
				}
			}
			return true
		})
	}
	return ev
}

func isWaitGroupMethod(m *types.Func) bool {
	sig, ok := m.Type().(*types.Signature)
	return ok && sig.Recv() != nil && isPkgType(sig.Recv().Type(), "sync", "WaitGroup", false)
}

// closesNetValue reports whether sel is a Close-ish call on a net.Conn /
// net.Listener / concrete net type, or on a named type containing one (a
// tracked-conn wrapper closing its conn counts via its own body; a
// connTracker.closeAll call counts because the tracker holds conns).
func closesNetValue(pkg *Package, sel *ast.SelectorExpr) bool {
	t := pkg.Info.TypeOf(sel.X)
	return t != nil && typeTouchesNet(t, 0)
}

// typeTouchesNet reports whether t is (or structurally contains, to a small
// depth) a net.Conn, net.Listener, or any named type from package net.
func typeTouchesNet(t types.Type, depth int) bool {
	if t == nil || depth > 3 {
		return false
	}
	if n := namedType(t); n != nil && n.Obj() != nil && n.Obj().Pkg() != nil {
		if n.Obj().Pkg().Path() == "net" {
			return true
		}
	}
	switch tt := deref(types.Unalias(t)).(type) {
	case *types.Named:
		if st, ok := tt.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if typeTouchesNet(st.Field(i).Type(), depth+1) {
					return true
				}
			}
		}
		if _, ok := tt.Underlying().(*types.Interface); ok {
			// Named interfaces from package net were caught above; other
			// interfaces (io.Closer etc.) are not conn evidence.
			return false
		}
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			if typeTouchesNet(tt.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Map:
		return typeTouchesNet(tt.Key(), depth+1) || typeTouchesNet(tt.Elem(), depth+1)
	case *types.Slice:
		return typeTouchesNet(tt.Elem(), depth+1)
	}
	return false
}

// referencedObject resolves an expression to the field or variable object
// it denotes (identical across packages in the shared type world).
func referencedObject(pkg *Package, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pkg.Info.Uses[x]; obj != nil {
			return obj
		}
		return pkg.Info.Defs[x]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			return sel.Obj()
		}
		return pkg.Info.Uses[x.Sel]
	}
	return nil
}

// hasStopPath gathers evidence for one go site.
func (ev *lifecycleEvidence) hasStopPath(site goSite) bool {
	scan := &siteScan{ev: ev, visited: make(map[*types.Func]bool)}
	call := site.stmt.Call
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		scan.body(site.fs.pkg, lit.Body, 0)
	} else {
		for _, callee := range ev.g.siteCallees[call] {
			if fs, ok := ev.g.spanOf[callee]; ok {
				scan.visited[callee] = true
				scan.body(fs.pkg, fs.decl.Body, 0)
			}
		}
	}
	if scan.found {
		return true
	}
	// Conn evidence: the goroutine works on a conn/listener and the owner
	// type's Stop/Close reaches a function that closes one.
	if scan.touchesConn || spawnTouchesConn(site) {
		if owner := spawnOwner(site); owner != nil && ev.ownerClosesConns(owner) {
			return true
		}
	}
	return false
}

// siteScan walks a goroutine body (and its callees, depth-bounded) for
// WaitGroup-join and done-channel evidence.
type siteScan struct {
	ev          *lifecycleEvidence
	visited     map[*types.Func]bool
	found       bool
	touchesConn bool
}

const maxEvidenceDepth = 4

func (s *siteScan) body(pkg *Package, body ast.Node, depth int) {
	if s.found || depth > maxEvidenceDepth {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if s.found {
			return false
		}
		switch node := n.(type) {
		case *ast.GoStmt:
			return false // a child goroutine's evidence is its own
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				s.receive(pkg, node.X)
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(node.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					s.receive(pkg, node.X)
				}
			}
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if m, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && isWaitGroupMethod(m) {
					if obj := referencedObject(pkg, sel.X); obj != nil && s.ev.waited[obj] {
						s.found = true
						return false
					}
				}
			}
			for _, callee := range s.ev.g.siteCallees[node] {
				if s.visited[callee] {
					continue
				}
				s.visited[callee] = true
				if fs, ok := s.ev.g.spanOf[callee]; ok {
					s.body(fs.pkg, fs.decl.Body, depth+1)
				}
			}
		case *ast.Ident, *ast.SelectorExpr:
			if !s.touchesConn {
				if t := pkg.Info.TypeOf(n.(ast.Expr)); t != nil && typeTouchesNet(t, 0) {
					s.touchesConn = true
				}
			}
		}
		return true
	})
}

// receive records done-channel evidence for a received-from expression.
func (s *siteScan) receive(pkg *Package, e ast.Expr) {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		// <-ctx.Done() and friends: a cancelable source.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			s.found = true
		}
		return
	}
	if obj := referencedObject(pkg, e); obj != nil && s.ev.closed[obj] {
		s.found = true
	}
}

// spawnOwner is the named receiver type of the function containing the go
// statement — the owner whose Stop/Close must provide the stop path.
func spawnOwner(site goSite) *types.Named {
	fd := site.fs.decl
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	return namedType(site.fs.pkg.Info.TypeOf(fd.Recv.List[0].Type))
}

// spawnTouchesConn reports whether the spawn expression itself carries a
// conn/listener (arguments or receiver).
func spawnTouchesConn(site goSite) bool {
	found := false
	ast.Inspect(site.stmt.Call, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			if t := site.fs.pkg.Info.TypeOf(e); t != nil && typeTouchesNet(t, 0) {
				found = true
			}
		}
		return true
	})
	return found
}

// ownerClosesConns reports whether a Stop/Close/Shutdown method of owner
// reaches (over the call graph) a function that closes a net value.
func (ev *lifecycleEvidence) ownerClosesConns(owner *types.Named) bool {
	if v, ok := ev.ownerMemo[owner]; ok {
		return v
	}
	result := false
	for fn := range ev.g.spanOf {
		if !stopMethodNames[fn.Name()] {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		if namedType(sig.Recv().Type()) != owner {
			continue
		}
		for member := range ev.g.closure(fn) {
			if ev.netClosers[member] {
				result = true
				break
			}
		}
		if result {
			break
		}
	}
	ev.ownerMemo[owner] = result
	return result
}
