package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EpochChecker enforces the epoch-protection discipline around the paper's
// §5.5 fuzzy version boundaries (internal/epoch):
//
//  1. pairing rule — every epoch.Slot.Enter must reach an Exit (explicit or
//     deferred) on every path out of the function, including early returns.
//     A slot deliberately handed to the caller still entered (guarded
//     admission) documents it with //dpr:ignore, exactly like a handed-off
//     lock.
//
//  2. no blocking while entered — an entered slot gates the table's Drain:
//     the drain waits for every active slot, so anything the entered
//     section blocks on that is (transitively) downstream of a drain is a
//     deadlock. Inside an entered region the checker flags:
//
//     - channel sends, receives, range-over-channel, and selects without a
//     default case;
//     - time.Sleep, hrtimer.Sleep and sync.WaitGroup.Wait;
//     - calls to epoch.Table.Drain/WaitObserved, directly or through any
//     call chain in the module (the whole-program part: the call graph
//     decides reachability);
//     - acquiring a drain-coupled mutex — a lock some function holds across
//     a transitive drain (e.g. kv's checkpoint state-machine lock): the
//     drain the holder waits on cannot finish until this slot exits;
//     - blocking I/O (net.Conn/net.Listener/os.File reads, writes,
//     accepts, and net dial/listen calls).
//
// The analysis is per-function over the same abstract-interpretation shape
// as the mutex checker (intersection merges, deferred releases); slot types
// are matched by the last path segment of their package, so fixtures can
// declare a miniature epoch package.
type EpochChecker struct{}

func (*EpochChecker) Name() string { return "epoch-discipline" }

const epochPkgPath = "dpr/internal/epoch"

func isEpochSlot(t types.Type) bool  { return isPkgType(t, epochPkgPath, "Slot", true) }
func isEpochTable(t types.Type) bool { return isPkgType(t, epochPkgPath, "Table", true) }

// epochOp is one Enter/Exit call on an epoch slot.
type epochOp struct {
	instance string
	enter    bool
}

// classifyEpochCall recognizes x.Enter() / x.Exit() on epoch.Slot.
func classifyEpochCall(pkg *Package, call *ast.CallExpr) (epochOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return epochOp{}, false
	}
	var op epochOp
	switch sel.Sel.Name {
	case "Enter":
		op.enter = true
	case "Exit":
	default:
		return epochOp{}, false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return epochOp{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isEpochSlot(sig.Recv().Type()) {
		return epochOp{}, false
	}
	op.instance = exprString(sel.X)
	return op, true
}

func (c *EpochChecker) Run(u *Unit) []Diagnostic {
	g := unitGraph(u)
	targets := drainTargets(u)
	coupled := unitDrainCoupled(u)
	var diags []Diagnostic
	funcs := declaredFuncs(u)
	for i := range funcs {
		fs := &funcs[i]
		flow := &epochFlow{u: u, pkg: fs.pkg, check: c.Name(), graph: g, drains: targets, coupled: coupled}
		flow.analyzeBody(fs.decl.Body)
		for _, lit := range collectFuncLits(fs.decl.Body) {
			flow.analyzeBody(lit.lit.Body)
		}
		diags = append(diags, flow.diags...)
	}
	return diags
}

// ---- abstract interpretation ----

type enteredSlot struct {
	pos      token.Pos
	deferred bool // a deferred Exit covers this slot
}

type epochState struct {
	entered      map[string]*enteredSlot
	deferredExit map[string]bool
	terminated   bool
}

func newEpochState() *epochState {
	return &epochState{entered: map[string]*enteredSlot{}, deferredExit: map[string]bool{}}
}

func (s *epochState) clone() *epochState {
	n := newEpochState()
	for k, v := range s.entered {
		cp := *v
		n.entered[k] = &cp
	}
	for k := range s.deferredExit {
		n.deferredExit[k] = true
	}
	return n
}

func mergeEpochStates(states []*epochState) *epochState {
	var live []*epochState
	for _, s := range states {
		if s != nil && !s.terminated {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		s := newEpochState()
		s.terminated = true
		return s
	}
	out := live[0].clone()
	for k, e := range out.entered {
		for _, s := range live[1:] {
			other, ok := s.entered[k]
			if !ok {
				delete(out.entered, k)
				break
			}
			if other.deferred {
				e.deferred = true
			}
		}
	}
	for _, s := range live[1:] {
		for k := range s.deferredExit {
			out.deferredExit[k] = true
		}
	}
	return out
}

type epochFlow struct {
	u       *Unit
	pkg     *Package
	check   string
	graph   *callGraph
	drains  map[*types.Func]bool
	coupled map[string]token.Pos
	diags   []Diagnostic

	// frames collects the abstract states delivered by `break` statements
	// to their enclosing loop/switch/select, so a slot entered before a
	// break survives into the code after the loop (the guarded-admission
	// shape: `for { slot.Enter(); if ok { break }; slot.Exit() }`).
	frames       []*breakFrame
	pendingLabel string
}

type breakFrame struct {
	label  string
	isLoop bool
	states []*epochState
}

// pushFrame opens a break target, consuming any pending statement label.
func (a *epochFlow) pushFrame(isLoop bool) *breakFrame {
	f := &breakFrame{label: a.pendingLabel, isLoop: isLoop}
	a.pendingLabel = ""
	a.frames = append(a.frames, f)
	return f
}

func (a *epochFlow) popFrame() {
	a.frames = a.frames[:len(a.frames)-1]
}

// deliverBreak hands the current state to the frame a break targets.
func (a *epochFlow) deliverBreak(label string, st *epochState) {
	for i := len(a.frames) - 1; i >= 0; i-- {
		f := a.frames[i]
		if label == "" || f.label == label {
			f.states = append(f.states, st.clone())
			return
		}
	}
}

func (a *epochFlow) analyzeBody(body *ast.BlockStmt) {
	st := newEpochState()
	a.block(body.List, st)
	if !st.terminated {
		a.reportEntered(st, body.Rbrace, "function end")
	}
}

func (a *epochFlow) reportEntered(st *epochState, at token.Pos, where string) {
	for inst, e := range st.entered {
		if e.deferred {
			continue
		}
		a.diags = append(a.diags, Diagnostic{
			Pos:   a.u.Position(at),
			Check: a.check,
			Message: fmt.Sprintf("epoch slot %s entered at %s is still entered at %s (no Exit or deferred Exit on this path)",
				inst, a.u.Position(e.pos), where),
		})
	}
}

// anyEntered returns one entered slot (for diagnostics), or "" when none.
func (st *epochState) anyEntered() (string, token.Pos, bool) {
	for inst, e := range st.entered {
		return inst, e.pos, true
	}
	return "", token.NoPos, false
}

func (a *epochFlow) block(list []ast.Stmt, st *epochState) {
	for _, s := range list {
		if st.terminated {
			return
		}
		a.stmt(s, st)
	}
}

func (a *epochFlow) stmt(s ast.Stmt, st *epochState) {
	a.noteBlocking(s, st)
	switch n := s.(type) {
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			a.call(call, st)
		}
	case *ast.DeferStmt:
		a.deferStmt(n, st)
	case *ast.ReturnStmt:
		a.reportEntered(st, n.Pos(), "this return")
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
		*st = *mergeEpochStates([]*epochState{thenSt, elseSt})
	case *ast.ForStmt:
		if n.Init != nil {
			a.stmt(n.Init, st)
		}
		frame := a.pushFrame(true)
		bodySt := st.clone()
		a.block(n.Body.List, bodySt)
		a.popFrame()
		a.loopExit(st, bodySt, frame, n.Cond != nil)
	case *ast.RangeStmt:
		if inst, pos, ok := st.anyEntered(); ok {
			if t := a.pkg.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					a.blockDiag(n.Pos(), "range over channel", inst, pos)
				}
			}
		}
		frame := a.pushFrame(true)
		bodySt := st.clone()
		a.block(n.Body.List, bodySt)
		a.popFrame()
		a.loopExit(st, bodySt, frame, true)
	case *ast.SendStmt:
		if inst, pos, ok := st.anyEntered(); ok {
			a.blockDiag(n.Pos(), "channel send", inst, pos)
		}
	case *ast.SelectStmt:
		if inst, pos, ok := st.anyEntered(); ok && !selectHasDefault(n) {
			a.blockDiag(n.Pos(), "select with no default case", inst, pos)
		}
		a.switchLike(n, st)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		a.switchLike(n, st)
	case *ast.LabeledStmt:
		a.pendingLabel = n.Label.Name
		a.stmt(n.Stmt, st)
		a.pendingLabel = ""
	case *ast.GoStmt:
		// Runs elsewhere; the spawned literal is analyzed independently.
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok {
				a.call(call, st)
			}
		}
	case *ast.BranchStmt:
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

// loopExit computes the state after a loop: the union of every break-out
// state plus, when the loop can complete normally (a condition or range
// that runs dry), the zero-iteration state and the body fallthrough.
func (a *epochFlow) loopExit(st, bodySt *epochState, frame *breakFrame, canFallThrough bool) {
	exits := append([]*epochState{}, frame.states...)
	if canFallThrough {
		exits = append(exits, st.clone(), bodySt)
	}
	if len(exits) == 0 {
		// Infinite loop with no break: nothing after it executes.
		st.terminated = true
		return
	}
	*st = *mergeEpochStates(exits)
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if c, ok := cl.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}

func (a *epochFlow) switchLike(s ast.Stmt, st *epochState) {
	var bodies [][]ast.Stmt
	hasDefault := false
	collect := func(body *ast.BlockStmt) {
		for _, cl := range body.List {
			switch c := cl.(type) {
			case *ast.CaseClause:
				bodies = append(bodies, c.Body)
				if c.List == nil {
					hasDefault = true
				}
			case *ast.CommClause:
				bodies = append(bodies, c.Body)
				if c.Comm == nil {
					hasDefault = true
				}
			}
		}
	}
	switch n := s.(type) {
	case *ast.SwitchStmt:
		if n.Init != nil {
			a.stmt(n.Init, st)
		}
		collect(n.Body)
	case *ast.TypeSwitchStmt:
		if n.Init != nil {
			a.stmt(n.Init, st)
		}
		collect(n.Body)
	case *ast.SelectStmt:
		collect(n.Body)
		hasDefault = hasDefault || len(bodies) > 0
	}
	frame := a.pushFrame(false)
	states := make([]*epochState, 0, len(bodies)+1)
	for _, b := range bodies {
		cs := st.clone()
		a.block(b, cs)
		states = append(states, cs)
	}
	a.popFrame()
	states = append(states, frame.states...)
	if !hasDefault || len(bodies) == 0 {
		states = append(states, st.clone())
	}
	*st = *mergeEpochStates(states)
}

// call updates the entered-state for Enter/Exit calls.
func (a *epochFlow) call(call *ast.CallExpr, st *epochState) {
	op, ok := classifyEpochCall(a.pkg, call)
	if !ok {
		return
	}
	if op.enter {
		st.entered[op.instance] = &enteredSlot{pos: call.Pos(), deferred: st.deferredExit[op.instance]}
		return
	}
	delete(st.entered, op.instance)
}

func (a *epochFlow) deferStmt(d *ast.DeferStmt, st *epochState) {
	markExited := func(call *ast.CallExpr) {
		op, ok := classifyEpochCall(a.pkg, call)
		if !ok || op.enter {
			return
		}
		if e, entered := st.entered[op.instance]; entered {
			e.deferred = true
		}
		st.deferredExit[op.instance] = true
	}
	if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				markExited(c)
			}
			return true
		})
		return
	}
	markExited(d.Call)
}

// noteBlocking scans a statement's embedded expressions for blocking
// operations while a slot is entered: receives and blocking calls.
func (a *epochFlow) noteBlocking(s ast.Stmt, st *epochState) {
	inst, epos, entered := st.anyEntered()
	if !entered {
		return
	}
	var roots []ast.Node
	add := func(e ast.Expr) {
		if e != nil {
			roots = append(roots, e)
		}
	}
	switch n := s.(type) {
	case *ast.ExprStmt:
		add(n.X)
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			add(e)
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			add(e)
		}
	case *ast.IfStmt:
		add(n.Cond)
	case *ast.ForStmt:
		add(n.Cond)
	case *ast.SwitchStmt:
		add(n.Tag)
	case *ast.DeclStmt:
		roots = append(roots, n)
	}
	for _, root := range roots {
		ast.Inspect(root, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.UnaryExpr:
				if e.Op == token.ARROW {
					a.blockDiag(e.Pos(), "channel receive", inst, epos)
				}
			case *ast.CallExpr:
				a.blockingCall(e, inst, epos)
			}
			return true
		})
	}
}

// blockingCall flags a call expression made while entered when it blocks:
// direct or transitive epoch drains, drain-coupled lock acquisitions,
// sleeps, WaitGroup waits, and blocking I/O.
func (a *epochFlow) blockingCall(call *ast.CallExpr, inst string, epos token.Pos) {
	if op, ok := classifyEpochCall(a.pkg, call); ok && !op.enter {
		return // the paired Exit itself
	}
	if op, ok := classifyLockCall(a.pkg, call); ok {
		if op.acquire && op.keyed {
			if cpos, coupled := a.coupled[op.typeKey]; coupled {
				a.diags = append(a.diags, Diagnostic{
					Pos:   a.u.Position(call.Pos()),
					Check: a.check,
					Message: fmt.Sprintf("%s acquired while epoch slot %s is entered (entered at %s): %s is held across an epoch drain at %s, so the drain cannot finish until this slot exits — deadlock",
						op.typeKey, inst, a.u.Position(epos), op.typeKey, a.u.Position(cpos)),
				})
			}
		}
		return
	}
	// Drain reachability, resolved through the whole-program call graph.
	for _, callee := range a.graph.siteCallees[call] {
		if a.drains[callee] {
			a.blockDiag(call.Pos(), fmt.Sprintf("epoch.Table.%s (self-deadlock against the drain)", callee.Name()), inst, epos)
			return
		}
		if via, ok := a.graph.reachesAny(callee, a.drains); ok {
			a.blockDiag(call.Pos(), fmt.Sprintf("call to %s, which can reach epoch.Table.%s", calleeName(a.graph, callee), via.Name()), inst, epos)
			return
		}
	}
	if fn := calledFunc(a.pkg, call); fn != nil {
		// hrtimer by last path segment, like the epoch package itself.
		if short := pkgShortName(fn.Pkg()); fn.Name() == "Sleep" && (short == "time" || short == "hrtimer") {
			a.blockDiag(call.Pos(), short+".Sleep", inst, epos)
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if fn.Name() == "Wait" && isPkgType(recv, "sync", "WaitGroup", false) {
				a.blockDiag(call.Pos(), "sync.WaitGroup.Wait", inst, epos)
				return
			}
			if blockingIOMethod(recv, fn.Name()) {
				a.blockDiag(call.Pos(), fmt.Sprintf("blocking I/O (%s.%s)", recv.String(), fn.Name()), inst, epos)
				return
			}
		} else if fn.Pkg() != nil && fn.Pkg().Path() == "net" {
			if strings.HasPrefix(fn.Name(), "Dial") || strings.HasPrefix(fn.Name(), "Listen") {
				a.blockDiag(call.Pos(), "blocking I/O (net."+fn.Name()+")", inst, epos)
				return
			}
		}
	}
}

func (a *epochFlow) blockDiag(at token.Pos, what, inst string, epos token.Pos) {
	a.diags = append(a.diags, Diagnostic{
		Pos:   a.u.Position(at),
		Check: a.check,
		Message: fmt.Sprintf("%s while epoch slot %s is entered (entered at %s); an entered slot gates the table's drain, so blocking here can deadlock it",
			what, inst, a.u.Position(epos)),
	})
}

// calledFunc resolves a call to its *types.Func (declared anywhere,
// including the stdlib), or nil for function values and builtins.
func calledFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// blockingIOMethod reports whether recv.name is a blocking I/O entry point
// on net.Conn, net.Listener, their concrete net implementations, or
// os.File.
func blockingIOMethod(recv types.Type, name string) bool {
	switch name {
	case "Read", "Write", "Accept", "ReadFrom", "WriteTo", "AcceptTCP", "ReadFromUDP":
	default:
		return false
	}
	n := namedType(recv)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() {
	case "net", "os":
		return true
	}
	return false
}

// calleeName renders a declared function for diagnostics.
func calleeName(g *callGraph, fn *types.Func) string {
	if fs, ok := g.spanOf[fn]; ok {
		return pkgShortName(fs.pkg.Pkg) + "." + fs.name
	}
	return fn.Name()
}
