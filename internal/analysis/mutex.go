package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MutexChecker enforces the repo's locking discipline, per function, over
// the held-resource walker of flow.go:
//
//  1. release rule — every Lock()/RLock() must be released on every return
//     path, either by a dominating defer or by an explicit Unlock on the
//     path. Functions that intentionally hand a held lock to their caller
//     (guarded admission) document it with //dpr:ignore. Acquiring an
//     exclusive lock already held is reported as a self-deadlock.
//
//  2. order rule — a declared lock-order graph, written in source as
//
//     //dpr:lockorder pkg.Type.field < pkg.Type.field
//
//     ("left is acquired before right, never the reverse"). Acquiring a
//     lock while holding one that the graph says must come after it is
//     flagged.
//
// Copying a lock-containing value is `go vet -copylocks`'s finding, not this
// checker's.
type MutexChecker struct{}

func (*MutexChecker) Name() string { return "mutex-discipline" }

const lockOrderDirective = "dpr:lockorder"

func (c *MutexChecker) Run(u *Unit) []Diagnostic {
	order, diags := parseLockOrder(u)
	report := func(at token.Pos, format string, args ...any) {
		diags = append(diags, u.diagf(c.Name(), at, format, args...))
	}
	for _, fs := range declaredFuncs(u) {
		flow := &heldFlow{pkg: fs.pkg, classify: classifyLockCall}
		flow.onAcquire = func(call *ast.CallExpr, op flowOp, st *flowState) {
			if prev, dup := st.held[op.instance]; dup && !prev.op.shared && !op.shared {
				report(call.Pos(), "%s.Lock() while already held since %s: self-deadlock",
					op.instance, u.Position(prev.pos))
			}
			for _, h := range st.held {
				if h.op.typeKey == op.typeKey {
					continue
				}
				if declPos, bad := order.mustPrecede(op.typeKey, h.op.typeKey); bad {
					report(call.Pos(), "%s acquired while holding %s, violating //dpr:lockorder %s < %s (declared at %s)",
						op.typeKey, h.op.typeKey, op.typeKey, h.op.typeKey, u.Position(declPos))
				}
			}
		}
		flow.onLeak = func(h *heldRes, at token.Pos, where string) {
			verb := "Lock()"
			if h.op.shared {
				verb = "RLock()"
			}
			report(at, "%s.%s acquired at %s is still held at %s (no Unlock or defer on this path)",
				h.op.instance, verb, u.Position(h.pos), where)
		}
		flow.walkDecl(fs.decl.Body)
	}
	return diags
}

// ---- lock-order graph ----

// lockOrder holds the transitive closure of declared before-edges:
// before[a][b] means a must be acquired before b.
type lockOrder struct {
	before map[string]map[string]token.Pos
}

func (o *lockOrder) mustPrecede(a, b string) (token.Pos, bool) {
	if o == nil {
		return token.NoPos, false
	}
	p, ok := o.before[a][b]
	return p, ok
}

func parseLockOrder(u *Unit) (*lockOrder, []Diagnostic) {
	o := &lockOrder{before: make(map[string]map[string]token.Pos)}
	var diags []Diagnostic
	add := func(a, b string, pos token.Pos) {
		if o.before[a] == nil {
			o.before[a] = make(map[string]token.Pos)
		}
		if _, ok := o.before[a][b]; !ok {
			o.before[a][b] = pos
		}
	}
	for _, d := range directiveComments(u, lockOrderDirective) {
		parts := strings.Split(d.text, "<")
		if len(parts) < 2 {
			diags = append(diags, Diagnostic{Pos: u.Position(d.pos), Check: "mutex-discipline",
				Message: "malformed //dpr:lockorder (want \"a < b [< c ...]\"): " + d.text})
			continue
		}
		names := make([]string, len(parts))
		bad := false
		for i, p := range parts {
			names[i] = strings.TrimSpace(p)
			if names[i] == "" {
				bad = true
			}
		}
		if bad {
			diags = append(diags, Diagnostic{Pos: u.Position(d.pos), Check: "mutex-discipline",
				Message: "malformed //dpr:lockorder (empty lock name): " + d.text})
			continue
		}
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				add(names[i], names[j], d.pos)
			}
		}
	}
	// Transitive closure (the graphs are tiny).
	for changed := true; changed; {
		changed = false
		for a, bs := range o.before {
			for b := range bs {
				for c := range o.before[b] {
					if _, ok := o.before[a][c]; !ok {
						add(a, c, o.before[a][b])
						changed = true
					}
				}
			}
		}
	}
	return o, diags
}

// ---- lock identification ----

// classifyLockCall recognizes x.Lock / x.Unlock / x.RLock / x.RUnlock calls
// on sync.Mutex / sync.RWMutex (including promoted methods of embedded
// locks).
func classifyLockCall(pkg *Package, call *ast.CallExpr) (flowOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return flowOp{}, false
	}
	var op flowOp
	switch sel.Sel.Name {
	case "Lock":
		op.acquire = true
	case "RLock":
		op.acquire, op.shared = true, true
	case "Unlock":
	case "RUnlock":
		op.shared = true
	default:
		return flowOp{}, false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return flowOp{}, false
	}
	recv := namedType(fn.Type().(*types.Signature).Recv().Type())
	if recv == nil {
		return flowOp{}, false
	}
	switch recv.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return flowOp{}, false
	}
	op.instance = exprString(sel.X)
	op.typeKey, op.keyed = lockTypeKey(pkg, sel.X)
	return op, true
}

// lockTypeKey renders the mutex expression as a module-wide lock name:
// "pkg.Type.field" for field locks, "pkg.name" for package-level locks, and
// the local name for everything else. keyed reports whether the name is
// owner-qualified — only keyed locks participate in the whole-program
// nesting graph; anonymous locals (stripe locks pulled out of an index)
// have no module-wide identity.
func lockTypeKey(pkg *Package, x ast.Expr) (key string, keyed bool) {
	switch e := x.(type) {
	case *ast.SelectorExpr:
		ownerT := pkg.Info.TypeOf(e.X)
		if n := namedType(ownerT); n != nil && n.Obj().Pkg() != nil {
			return pkgShortName(n.Obj().Pkg()) + "." + n.Obj().Name() + "." + e.Sel.Name, true
		}
		return exprString(x), false
	case *ast.Ident:
		if obj := pkg.Info.Uses[e]; obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil {
				if v.Parent() == v.Pkg().Scope() { // package-level mutex
					return pkgShortName(v.Pkg()) + "." + v.Name(), true
				}
				// A local whose type names the lock owner (method receivers
				// do not appear here; fields always go through selectors).
				if n := namedType(v.Type()); n != nil && n.Obj().Pkg() != nil {
					return pkgShortName(n.Obj().Pkg()) + "." + n.Obj().Name(), false
				}
			}
		}
		return e.Name, false
	default:
		return exprString(x), false
	}
}
