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
// The analysis is per-function over the held-resource walker of flow.go
// (intersection merges, deferred releases, break states), the same one the
// mutex checker runs on; slot types are matched by the last path segment of
// their package, so fixtures can declare a miniature epoch package.
type EpochChecker struct{}

func (*EpochChecker) Name() string { return "epoch-discipline" }

const epochPkgPath = "dpr/internal/epoch"

func isEpochSlot(t types.Type) bool  { return isPkgType(t, epochPkgPath, "Slot", true) }
func isEpochTable(t types.Type) bool { return isPkgType(t, epochPkgPath, "Table", true) }

// classifyEpochCall recognizes x.Enter() / x.Exit() on epoch.Slot.
func classifyEpochCall(pkg *Package, call *ast.CallExpr) (flowOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return flowOp{}, false
	}
	var op flowOp
	switch sel.Sel.Name {
	case "Enter":
		op.acquire = true
	case "Exit":
	default:
		return flowOp{}, false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return flowOp{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isEpochSlot(sig.Recv().Type()) {
		return flowOp{}, false
	}
	op.instance = exprString(sel.X)
	return op, true
}

func (c *EpochChecker) Run(u *Unit) []Diagnostic {
	e := &epochRules{u: u, check: c.Name(), graph: unitGraph(u), drains: drainTargets(u), coupled: unitDrainCoupled(u)}
	for _, fs := range declaredFuncs(u) {
		e.pkg = fs.pkg
		flow := &heldFlow{pkg: fs.pkg, classify: classifyEpochCall, onStmt: e.noteBlocking}
		flow.onLeak = func(h *heldRes, at token.Pos, where string) {
			e.report(at, "epoch slot %s entered at %s is still entered at %s (no Exit or deferred Exit on this path)",
				h.op.instance, u.Position(h.pos), where)
		}
		flow.walkDecl(fs.decl.Body)
	}
	return e.diags
}

// epochRules is the "no blocking while entered" rule: the walker's
// per-statement hook, with the whole-program facts it consults.
type epochRules struct {
	u       *Unit
	pkg     *Package // of the declaration being walked
	check   string
	graph   *callGraph
	drains  map[*types.Func]bool
	coupled map[string]token.Pos
	diags   []Diagnostic
}

func (e *epochRules) report(at token.Pos, format string, args ...any) {
	e.diags = append(e.diags, e.u.diagf(e.check, at, format, args...))
}

// noteBlocking flags what a statement blocks on while a slot is entered:
// channel operations, and the receives and blocking calls in the
// expressions it evaluates.
func (e *epochRules) noteBlocking(s ast.Stmt, st *flowState) {
	// Any entered slot will do for the message; the first by name keeps it
	// deterministic.
	var slot *heldRes
	for _, h := range st.held {
		if slot == nil || h.op.instance < slot.op.instance {
			slot = h
		}
	}
	if slot == nil {
		return
	}
	inst, epos := slot.op.instance, slot.pos
	switch n := s.(type) {
	case *ast.RangeStmt:
		if t := e.pkg.Info.TypeOf(n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				e.blockDiag(n.Pos(), "range over channel", inst, epos)
			}
		}
	case *ast.SendStmt:
		e.blockDiag(n.Pos(), "channel send", inst, epos)
	case *ast.SelectStmt:
		if !selectHasDefault(n) {
			e.blockDiag(n.Pos(), "select with no default case", inst, epos)
		}
	}
	embedded(s, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				e.blockDiag(x.Pos(), "channel receive", inst, epos)
			}
		case *ast.CallExpr:
			e.blockingCall(x, inst, epos)
		}
	})
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if c, ok := cl.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall flags a call expression made while entered when it blocks:
// direct or transitive epoch drains, drain-coupled lock acquisitions,
// sleeps, WaitGroup waits, and blocking I/O.
func (e *epochRules) blockingCall(call *ast.CallExpr, inst string, epos token.Pos) {
	if op, ok := classifyEpochCall(e.pkg, call); ok && !op.acquire {
		return // the paired Exit itself
	}
	if op, ok := classifyLockCall(e.pkg, call); ok {
		if op.acquire && op.keyed {
			if cpos, coupled := e.coupled[op.typeKey]; coupled {
				e.report(call.Pos(), "%s acquired while epoch slot %s is entered (entered at %s): %s is held across an epoch drain at %s, so the drain cannot finish until this slot exits — deadlock",
					op.typeKey, inst, e.u.Position(epos), op.typeKey, e.u.Position(cpos))
			}
		}
		return
	}
	// Drain reachability, resolved through the whole-program call graph.
	for _, callee := range e.graph.siteCallees[call] {
		if e.drains[callee] {
			e.blockDiag(call.Pos(), fmt.Sprintf("epoch.Table.%s (self-deadlock against the drain)", callee.Name()), inst, epos)
			return
		}
		if via, ok := e.graph.reachesAny(callee, e.drains); ok {
			e.blockDiag(call.Pos(), fmt.Sprintf("call to %s, which can reach epoch.Table.%s", calleeName(e.graph, callee), via.Name()), inst, epos)
			return
		}
	}
	if fn := calledFunc(e.pkg, call); fn != nil {
		// hrtimer by last path segment, like the epoch package itself.
		if short := pkgShortName(fn.Pkg()); fn.Name() == "Sleep" && (short == "time" || short == "hrtimer") {
			e.blockDiag(call.Pos(), short+".Sleep", inst, epos)
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if fn.Name() == "Wait" && isPkgType(recv, "sync", "WaitGroup", false) {
				e.blockDiag(call.Pos(), "sync.WaitGroup.Wait", inst, epos)
				return
			}
			if blockingIOMethod(recv, fn.Name()) {
				e.blockDiag(call.Pos(), fmt.Sprintf("blocking I/O (%s.%s)", recv.String(), fn.Name()), inst, epos)
				return
			}
		} else if fn.Pkg() != nil && fn.Pkg().Path() == "net" {
			if strings.HasPrefix(fn.Name(), "Dial") || strings.HasPrefix(fn.Name(), "Listen") {
				e.blockDiag(call.Pos(), "blocking I/O (net."+fn.Name()+")", inst, epos)
				return
			}
		}
	}
}

func (e *epochRules) blockDiag(at token.Pos, what, inst string, epos token.Pos) {
	e.report(at, "%s while epoch slot %s is entered (entered at %s); an entered slot gates the table's drain, so blocking here can deadlock it",
		what, inst, e.u.Position(epos))
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
