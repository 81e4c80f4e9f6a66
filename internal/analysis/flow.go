package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the one path-sensitive walker of the suite: an abstract
// interpretation of a function body that tracks which instances of a paired
// resource — a lock between Lock and Unlock, an epoch slot between Enter and
// Exit — are definitely held at each statement. The mutex checker, the lock
// summaries and the epoch checker are its clients; each supplies a classifier
// (which call opens an instance, which closes it) and the hooks it needs.
//
// The analysis is deliberately conservative: branch exits merge by
// intersection, so an instance provably held on every path to a return is
// reported and one held on only some paths is not. A `break` carries its
// state to the statement after the loop, switch or select it leaves, so
// `for { s.Enter(); if ok { break }; s.Exit() }` leaves the loop holding s.
// Function literals run on their own activation and are walked separately.

// flowOp is one classified call: it opens or closes the instance it names.
type flowOp struct {
	instance string // per-function key, the receiver expression: "w.cutMu", "slot"
	acquire  bool
	// Set by the lock classifier only (see classifyLockCall).
	typeKey string // module-wide key, e.g. "libdpr.Worker.cutMu"
	keyed   bool   // typeKey is owner-qualified (field or package-level lock)
	shared  bool   // RLock/RUnlock
}

// heldRes is one instance currently held.
type heldRes struct {
	op       flowOp
	pos      token.Pos // where it was acquired
	deferred bool      // a deferred release covers it
}

type flowState struct {
	held map[string]*heldRes // instance key -> resource
	// deferredRelease records instance keys covered by a defer that has
	// already been sequenced (defer before a re-acquire in a loop).
	deferredRelease map[string]bool
	terminated      bool // path ended in return, break, continue or goto
}

func newFlowState() *flowState {
	return &flowState{held: map[string]*heldRes{}, deferredRelease: map[string]bool{}}
}

func (s *flowState) clone() *flowState {
	n := newFlowState()
	for k, v := range s.held {
		cp := *v
		n.held[k] = &cp
	}
	for k := range s.deferredRelease {
		n.deferredRelease[k] = true
	}
	return n
}

// mergeStates intersects branch exit states: an instance is definitely held
// after the branch only if every non-terminated branch holds it.
func mergeStates(states []*flowState) *flowState {
	var live []*flowState
	for _, s := range states {
		if !s.terminated {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		s := newFlowState()
		s.terminated = true
		return s
	}
	out := live[0].clone()
	for k, h := range out.held {
		for _, s := range live[1:] {
			other, ok := s.held[k]
			if !ok {
				delete(out.held, k)
				break
			}
			if other.deferred {
				h.deferred = true
			}
		}
	}
	for _, s := range live[1:] {
		for k := range s.deferredRelease {
			out.deferredRelease[k] = true
		}
	}
	return out
}

// heldFlow walks bodies of one package for one client.
type heldFlow struct {
	pkg      *Package
	classify func(pkg *Package, call *ast.CallExpr) (flowOp, bool)
	// onAcquire observes an acquisition with the state in force just before
	// it (the order rule, self-deadlock, the summaries' nesting edges).
	onAcquire func(call *ast.CallExpr, op flowOp, st *flowState)
	// onStmt observes every statement reached, before its own effect on the
	// state (no blocking while entered, the summaries' held-at-call sets).
	onStmt func(s ast.Stmt, st *flowState)
	// onLeak reports an instance still held, with no deferred release, where
	// a path leaves the function.
	onLeak func(h *heldRes, at token.Pos, where string)

	// frames collects the states delivered by `break` statements to their
	// enclosing loop, switch or select.
	frames       []*breakFrame
	pendingLabel string
}

type breakFrame struct {
	label  string
	states []*flowState
}

// walk interprets one function or function-literal body from an empty state.
func (a *heldFlow) walk(body *ast.BlockStmt) {
	st := newFlowState()
	a.block(body.List, st)
	if !st.terminated {
		a.leaks(st, body.Rbrace, "function end")
	}
}

// walkDecl walks a declaration's body and every function literal in it.
func (a *heldFlow) walkDecl(body *ast.BlockStmt) {
	a.walk(body)
	for _, lit := range collectFuncLits(body) {
		a.walk(lit.lit.Body)
	}
}

func (a *heldFlow) leaks(st *flowState, at token.Pos, where string) {
	if a.onLeak == nil {
		return
	}
	for _, h := range st.held {
		if !h.deferred {
			a.onLeak(h, at, where)
		}
	}
}

// pushFrame opens a break target, consuming any pending statement label.
func (a *heldFlow) pushFrame() *breakFrame {
	f := &breakFrame{label: a.pendingLabel}
	a.pendingLabel = ""
	a.frames = append(a.frames, f)
	return f
}

func (a *heldFlow) popFrame() { a.frames = a.frames[:len(a.frames)-1] }

// deliverBreak hands the current state to the frame a break targets.
func (a *heldFlow) deliverBreak(label string, st *flowState) {
	for i := len(a.frames) - 1; i >= 0; i-- {
		if f := a.frames[i]; label == "" || f.label == label {
			f.states = append(f.states, st.clone())
			return
		}
	}
}

func (a *heldFlow) block(list []ast.Stmt, st *flowState) {
	for _, s := range list {
		if st.terminated {
			return
		}
		a.stmt(s, st)
	}
}

func (a *heldFlow) stmt(s ast.Stmt, st *flowState) {
	if a.onStmt != nil {
		a.onStmt(s, st)
	}
	switch n := s.(type) {
	case *ast.ExprStmt:
		a.call(n.X, st)
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			a.call(rhs, st)
		}
	case *ast.DeferStmt:
		a.deferStmt(n, st)
	case *ast.ReturnStmt:
		a.leaks(st, n.Pos(), "this return")
		st.terminated = true
	case *ast.BlockStmt:
		a.block(n.List, st)
	case *ast.IfStmt:
		if n.Init != nil {
			a.stmt(n.Init, st)
		}
		thenSt := st.clone()
		a.block(n.Body.List, thenSt)
		elseSt := st.clone()
		if n.Else != nil {
			a.stmt(n.Else, elseSt)
		}
		*st = *mergeStates([]*flowState{thenSt, elseSt})
	case *ast.ForStmt:
		if n.Init != nil {
			a.stmt(n.Init, st)
		}
		a.loop(n.Body, st, n.Cond != nil)
	case *ast.RangeStmt:
		a.loop(n.Body, st, true)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		a.switchLike(n, st)
	case *ast.LabeledStmt:
		a.pendingLabel = n.Label.Name
		a.stmt(n.Stmt, st)
		a.pendingLabel = ""
	case *ast.BranchStmt:
		// Leaving the linear path ends this branch; a break's state resumes
		// after the statement it leaves. A go statement runs elsewhere and
		// has no case: its literal is walked on its own.
		switch n.Tok {
		case token.BREAK:
			label := ""
			if n.Label != nil {
				label = n.Label.Name
			}
			a.deliverBreak(label, st)
			st.terminated = true
		case token.CONTINUE, token.GOTO:
			st.terminated = true
		}
	}
}

// loop computes the state after a loop: the merge of every break-out state
// plus, when the loop can complete normally (a condition or a range that
// runs dry), the zero-iteration state and the body's fallthrough. An
// infinite loop with no break ends the path.
func (a *heldFlow) loop(body *ast.BlockStmt, st *flowState, canFallThrough bool) {
	frame := a.pushFrame()
	bodySt := st.clone()
	a.block(body.List, bodySt)
	a.popFrame()
	exits := frame.states
	if canFallThrough {
		exits = append(exits, st.clone(), bodySt)
	}
	*st = *mergeStates(exits)
}

func (a *heldFlow) switchLike(s ast.Stmt, st *flowState) {
	var clauses *ast.BlockStmt
	switch n := s.(type) {
	case *ast.SwitchStmt:
		if n.Init != nil {
			a.stmt(n.Init, st)
		}
		clauses = n.Body
	case *ast.TypeSwitchStmt:
		if n.Init != nil {
			a.stmt(n.Init, st)
		}
		clauses = n.Body
	case *ast.SelectStmt:
		clauses = n.Body
	}
	var bodies [][]ast.Stmt
	hasDefault := false
	for _, cl := range clauses.List {
		switch c := cl.(type) {
		case *ast.CaseClause:
			bodies = append(bodies, c.Body)
			hasDefault = hasDefault || c.List == nil
		case *ast.CommClause:
			bodies = append(bodies, c.Body)
			hasDefault = true // a select blocks until some case runs
		}
	}
	frame := a.pushFrame()
	states := make([]*flowState, 0, len(bodies)+1)
	for _, b := range bodies {
		cs := st.clone()
		a.block(b, cs)
		states = append(states, cs)
	}
	a.popFrame()
	states = append(states, frame.states...)
	if !hasDefault {
		states = append(states, st.clone()) // no case matched
	}
	*st = *mergeStates(states)
}

// call applies an acquire or release written as a statement or assigned.
func (a *heldFlow) call(e ast.Expr, st *flowState) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	op, ok := a.classify(a.pkg, call)
	if !ok {
		return
	}
	if !op.acquire {
		delete(st.held, op.instance)
		return
	}
	if a.onAcquire != nil {
		a.onAcquire(call, op, st)
	}
	st.held[op.instance] = &heldRes{op: op, pos: call.Pos(), deferred: st.deferredRelease[op.instance]}
}

// deferStmt marks the instances a deferred call, or a deferred literal's
// body, releases.
func (a *heldFlow) deferStmt(d *ast.DeferStmt, st *flowState) {
	markReleased := func(call *ast.CallExpr) {
		op, ok := a.classify(a.pkg, call)
		if !ok || op.acquire {
			return
		}
		if h, held := st.held[op.instance]; held {
			h.deferred = true
		}
		st.deferredRelease[op.instance] = true
	}
	if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				markReleased(c)
			}
			return true
		})
		return
	}
	markReleased(d.Call)
}

// embedded calls fn on every node of the expressions a statement evaluates
// itself — conditions, operands, results; nested statements are reached as
// statements — skipping function literals, which run on their own activation.
func embedded(s ast.Stmt, fn func(ast.Node)) {
	var roots []ast.Node
	add := func(es ...ast.Expr) {
		for _, e := range es {
			if e != nil {
				roots = append(roots, e)
			}
		}
	}
	switch n := s.(type) {
	case *ast.ExprStmt:
		add(n.X)
	case *ast.AssignStmt:
		add(n.Rhs...)
		add(n.Lhs...)
	case *ast.ReturnStmt:
		add(n.Results...)
	case *ast.SendStmt:
		add(n.Chan, n.Value)
	case *ast.IncDecStmt:
		add(n.X)
	case *ast.DeclStmt:
		roots = append(roots, n)
	case *ast.IfStmt:
		add(n.Cond)
	case *ast.ForStmt:
		add(n.Cond)
	case *ast.SwitchStmt:
		add(n.Tag)
	case *ast.RangeStmt:
		add(n.X)
	}
	for _, root := range roots {
		ast.Inspect(root, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			if n != nil {
				fn(n)
			}
			return true
		})
	}
}
