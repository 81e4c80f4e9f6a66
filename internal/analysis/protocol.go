package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// MigrationProtocolChecker enforces the migration protocol lifecycle: every
// BeginMigrate call must dominate a CompleteMigrate or AbortMigrate on all
// control-flow paths out of the function. A migration record left in the
// Preparing state wedges its shard forever — Ownership refuses to serve,
// and no future Begin can supersede it — so an early return between Begin
// and resolve is a real availability bug, not style.
//
// The analysis is name-based (BeginMigrate / CompleteMigrate /
// AbortMigrate) and flow-sensitive:
//
//   - a resolver counts if called directly, via a deferred call (including
//     a deferred function literal containing one), inside a return
//     expression, or through a declared callee that transitively reaches a
//     resolver over the call graph (so a helper like abortAndRestore
//     discharges the obligation);
//
//   - branches on the Begin call's error ("if err != nil { return err }")
//     clear the obligation on the failure arm: a failed Begin installed
//     nothing. The guard dies if the error variable is reassigned;
//
//   - functions themselves named BeginMigrate / CompleteMigrate /
//     AbortMigrate are exempt — they are the protocol implementations and
//     RPC forwarders, not clients;
//
//   - a resolver spawned with `go` does not count: the function can return
//     (and the caller can observe "migration started") before the
//     goroutine resolves anything.
//
// Paths merge by union: an obligation pending on any incoming path is
// pending after the merge.
type MigrationProtocolChecker struct{}

func (*MigrationProtocolChecker) Name() string { return "migration-protocol" }

const migBeginName = "BeginMigrate"

func isMigResolverName(name string) bool {
	return name == "CompleteMigrate" || name == "AbortMigrate"
}

func (c *MigrationProtocolChecker) Run(u *Unit) []Diagnostic {
	g := unitGraph(u)

	// Functions whose own body contains a call named Complete/AbortMigrate.
	// Syntactic on purpose: it covers interface calls the graph cannot
	// resolve to a declared body.
	resolvers := make(map[*types.Func]bool)
	for fn, fs := range g.spanOf {
		if bodyCallsResolver(fs.decl.Body) {
			resolvers[fn] = true
		}
	}
	resolverReach := func(fn *types.Func) bool {
		if resolvers[fn] {
			return true
		}
		for member := range g.closure(fn) {
			if resolvers[member] || isMigResolverName(member.Name()) {
				return true
			}
		}
		return false
	}

	var diags []Diagnostic
	funcs := declaredFuncs(u)
	for i := range funcs {
		fs := &funcs[i]
		if base := fs.decl.Name.Name; base == migBeginName || isMigResolverName(base) {
			continue // protocol implementations and forwarders
		}
		flow := &migFlow{u: u, pkg: fs.pkg, check: c.Name(), g: g, resolverReach: resolverReach}
		bodies := []*ast.BlockStmt{fs.decl.Body}
		for _, lit := range collectFuncLits(fs.decl.Body) {
			bodies = append(bodies, lit.lit.Body)
		}
		for _, body := range bodies {
			st := flow.block(body.List, &migState{})
			if !st.terminated {
				flow.checkExit(st, body.Rbrace)
			}
		}
		diags = append(diags, flow.diags...)
	}
	return diags
}

// migPending is one outstanding BeginMigrate obligation.
type migPending struct {
	pos    token.Pos
	errObj types.Object // error variable the Begin result was assigned to
}

type migState struct {
	pending       []migPending
	deferResolved bool // a deferred resolver is in force from here on
	terminated    bool
}

func (st *migState) clone() *migState {
	out := &migState{deferResolved: st.deferResolved, terminated: st.terminated}
	out.pending = append(out.pending, st.pending...)
	return out
}

// mergeMigStates joins two path states by union: pending anywhere is
// pending after, a deferred resolver must cover both arms to survive.
func mergeMigStates(a, b *migState) *migState {
	if a == nil || a.terminated {
		return b.clone()
	}
	if b == nil || b.terminated {
		return a.clone()
	}
	out := &migState{deferResolved: a.deferResolved && b.deferResolved}
	seen := make(map[token.Pos]bool)
	for _, p := range a.pending {
		seen[p.pos] = true
		out.pending = append(out.pending, p)
	}
	for _, p := range b.pending {
		if !seen[p.pos] {
			out.pending = append(out.pending, p)
		}
	}
	return out
}

type migFlow struct {
	u             *Unit
	pkg           *Package
	check         string
	g             *callGraph
	resolverReach func(*types.Func) bool
	diags         []Diagnostic
}

func (f *migFlow) block(stmts []ast.Stmt, st *migState) *migState {
	for _, s := range stmts {
		st = f.stmt(s, st)
		if st.terminated {
			break
		}
	}
	return st
}

func (f *migFlow) stmt(s ast.Stmt, st *migState) *migState {
	switch node := s.(type) {
	case *ast.ExprStmt:
		f.scanExpr(node.X, st)
	case *ast.AssignStmt:
		f.assign(node, st)
	case *ast.ReturnStmt:
		for _, r := range node.Results {
			f.scanExpr(r, st)
		}
		f.checkExit(st, node.Pos())
		st = st.clone()
		st.terminated = true
	case *ast.DeferStmt:
		if f.deferResolves(node.Call) {
			st = st.clone()
			st.deferResolved = true
		}
	case *ast.GoStmt:
		// Async resolution does not count; async Begins are their own
		// function literal's problem (analyzed independently).
	case *ast.IfStmt:
		st = f.ifStmt(node, st)
	case *ast.BlockStmt:
		st = f.block(node.List, st)
	case *ast.ForStmt:
		if node.Init != nil {
			st = f.stmt(node.Init, st)
		}
		if node.Cond != nil {
			f.scanExpr(node.Cond, st)
		}
		bodyOut := f.block(node.Body.List, st.clone())
		st = mergeMigStates(st, bodyOut)
	case *ast.RangeStmt:
		f.scanExpr(node.X, st)
		bodyOut := f.block(node.Body.List, st.clone())
		st = mergeMigStates(st, bodyOut)
	case *ast.SwitchStmt:
		if node.Init != nil {
			st = f.stmt(node.Init, st)
		}
		if node.Tag != nil {
			f.scanExpr(node.Tag, st)
		}
		st = f.clauses(node.Body, st, !switchHasDefault(node.Body))
	case *ast.TypeSwitchStmt:
		if node.Init != nil {
			st = f.stmt(node.Init, st)
		}
		st = f.clauses(node.Body, st, !switchHasDefault(node.Body))
	case *ast.SelectStmt:
		st = f.clauses(node.Body, st, false)
	case *ast.LabeledStmt:
		st = f.stmt(node.Stmt, st)
	case *ast.BranchStmt, *ast.EmptyStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.SendStmt:
		f.scanNode(s, st)
	default:
		f.scanNode(s, st)
	}
	return st
}

// clauses runs each case body from a clone of the incoming state and
// unions the results; withFallthroughPath adds the no-case-matched path.
func (f *migFlow) clauses(body *ast.BlockStmt, st *migState, noMatchPath bool) *migState {
	var out *migState
	if noMatchPath {
		out = st.clone()
	}
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cc := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				f.scanExpr(e, st)
			}
			stmts = cc.Body
		case *ast.CommClause:
			branch := st.clone()
			if cc.Comm != nil {
				branch = f.stmt(cc.Comm, branch)
			}
			out = mergeMigStates(out, f.block(cc.Body, branch))
			continue
		}
		out = mergeMigStates(out, f.block(stmts, st.clone()))
	}
	if out == nil {
		return st
	}
	return out
}

func switchHasDefault(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// assign handles `err := x.BeginMigrate(...)` specially so the obligation
// carries the error variable for later guard branches, and invalidates
// guards whose variable is overwritten.
func (f *migFlow) assign(node *ast.AssignStmt, st *migState) {
	var beginCall *ast.CallExpr
	if len(node.Rhs) == 1 {
		if call, ok := ast.Unparen(node.Rhs[0]).(*ast.CallExpr); ok && calledNameIs(call, migBeginName) {
			beginCall = call
			for _, a := range call.Args {
				f.scanExpr(a, st)
			}
		}
	}
	if beginCall == nil {
		for _, r := range node.Rhs {
			f.scanExpr(r, st)
		}
	}
	// Reassigning a guard variable kills the guard.
	for _, l := range node.Lhs {
		if obj := referencedObject(f.pkg, l); obj != nil {
			for i := range st.pending {
				if st.pending[i].errObj == obj {
					st.pending[i].errObj = nil
				}
			}
		}
	}
	if beginCall != nil {
		p := migPending{pos: beginCall.Pos()}
		// The last error-typed LHS holds the Begin result's error.
		for _, l := range node.Lhs {
			if t := f.pkg.Info.TypeOf(l); t != nil && isErrorType(t) {
				p.errObj = referencedObject(f.pkg, l)
			}
		}
		st.pending = append(st.pending, p)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// ifStmt splits on error guards tied to a pending Begin: on the arm where
// the Begin's error is non-nil the Begin failed and installed nothing, so
// the obligation is dropped there.
func (f *migFlow) ifStmt(node *ast.IfStmt, st *migState) *migState {
	if node.Init != nil {
		st = f.stmt(node.Init, st)
	}
	f.scanExpr(node.Cond, st)
	thenSt := st.clone()
	elseSt := st.clone()
	if obj, eqNil, ok := f.nilGuard(node.Cond); ok && obj != nil {
		failSt := thenSt // `err != nil` arm
		if eqNil {
			failSt = elseSt // `err == nil`: failure is the else arm
		}
		kept := failSt.pending[:0]
		for _, p := range failSt.pending {
			if p.errObj != obj {
				kept = append(kept, p)
			}
		}
		failSt.pending = kept
	}
	thenOut := f.block(node.Body.List, thenSt)
	elseOut := elseSt
	if node.Else != nil {
		elseOut = f.stmt(node.Else, elseSt)
	}
	return mergeMigStates(thenOut, elseOut)
}

// nilGuard recognizes `x == nil` / `x != nil` and resolves x's object.
func (f *migFlow) nilGuard(cond ast.Expr) (types.Object, bool, bool) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return nil, false, false
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if isNilIdent(y) {
		return referencedObject(f.pkg, x), bin.Op == token.EQL, true
	}
	if isNilIdent(x) {
		return referencedObject(f.pkg, y), bin.Op == token.EQL, true
	}
	return nil, false, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// scanExpr applies Begin/resolver effects of every call inside e, skipping
// function literals (analyzed on their own) and go statements.
func (f *migFlow) scanExpr(e ast.Expr, st *migState) {
	if e == nil {
		return
	}
	f.scanNode(e, st)
}

func (f *migFlow) scanNode(n ast.Node, st *migState) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch cn := c.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			_ = cn
			return false
		case *ast.CallExpr:
			if f.callResolves(cn) {
				st.pending = nil
			} else if calledNameIs(cn, migBeginName) {
				st.pending = append(st.pending, migPending{pos: cn.Pos()})
			}
		}
		return true
	})
}

// callResolves reports whether a call discharges the obligation: named
// resolver, or a declared callee that transitively reaches one.
func (f *migFlow) callResolves(call *ast.CallExpr) bool {
	if name, ok := calledName(call); ok && isMigResolverName(name) {
		return true
	}
	for _, callee := range f.g.siteCallees[call] {
		if f.resolverReach(callee) {
			return true
		}
	}
	return false
}

// deferResolves reports whether a deferred call (or deferred literal body)
// contains a resolver.
func (f *migFlow) deferResolves(call *ast.CallExpr) bool {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return bodyCallsResolver(lit.Body) || f.litReachesResolver(lit)
	}
	return f.callResolves(call)
}

func (f *migFlow) litReachesResolver(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && f.callResolves(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// bodyCallsResolver is the syntactic seed: a call named CompleteMigrate or
// AbortMigrate anywhere in the body (including through interfaces the call
// graph cannot resolve).
func bodyCallsResolver(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := calledName(call); ok && isMigResolverName(name) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func calledName(call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

func calledNameIs(call *ast.CallExpr, name string) bool {
	n, ok := calledName(call)
	return ok && n == name
}

// checkExit reports every still-pending Begin at a function exit.
func (f *migFlow) checkExit(st *migState, at token.Pos) {
	if st.deferResolved {
		return
	}
	for _, p := range st.pending {
		f.diags = append(f.diags, Diagnostic{
			Pos:     f.u.Position(at),
			Check:   f.check,
			Message: fmt.Sprintf("BeginMigrate at %s is not resolved on this path: no CompleteMigrate or AbortMigrate (direct, transitive, or deferred) before this return — an unresolved migration record wedges the shard", f.u.Position(p.pos)),
		})
	}
}
