package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CutWorldLineChecker enforces the world-line tagging discipline from the
// PR 2 bug class: version numbers restart across world-lines, so a DPR cut
// travelling without the world-line it was observed on can be applied to the
// wrong world — a client session commits erased operations whose tokens
// merely collide numerically.
//
// The rule: any scope that carries a core.Cut must carry a world-line tag in
// the same scope.
//
//   - A struct with a Cut-typed field must also have a field typed
//     core.WorldLine, core.WorldLineTracker, or a field whose own struct
//     type satisfies the rule (the atomic {wl, cut, encoded} snapshot
//     pattern). A map keyed by WorldLine with Cut values is self-tagging.
//   - A declared function with a Cut parameter or result must also carry a
//     WorldLine (or tracker) among its parameters/results, or hang off a
//     receiver whose struct satisfies the struct rule.
//   - Methods of the Cut type itself (its algebra: Get, Clone, Merge, ...)
//     are exempt, as are function *types* (signatures stored in config
//     fields are checked where a concrete function is declared).
//
// The core types are matched by name within any package named "core", so
// the checker's fixtures can declare a miniature core package.
type CutWorldLineChecker struct{}

func (*CutWorldLineChecker) Name() string { return "cut-worldline" }

const corePkgPath = "dpr/internal/core"

func isCut(t types.Type) bool       { return isPkgType(t, corePkgPath, "Cut", true) }
func isWorldLine(t types.Type) bool { return isPkgType(t, corePkgPath, "WorldLine", true) }
func isWorldLineTracker(t types.Type) bool {
	return isPkgType(t, corePkgPath, "WorldLineTracker", true)
}

// carriesUntaggedCut reports whether t is a bare cut carrier: Cut itself, or
// a pointer/slice/array of Cut, or a map with Cut values not keyed by
// WorldLine.
func carriesUntaggedCut(t types.Type) bool {
	if t == nil {
		return false
	}
	if isCut(t) {
		return true
	}
	switch tt := types.Unalias(t).(type) {
	case *types.Pointer:
		return carriesUntaggedCut(tt.Elem())
	case *types.Slice:
		return carriesUntaggedCut(tt.Elem())
	case *types.Array:
		return carriesUntaggedCut(tt.Elem())
	case *types.Map:
		if isWorldLine(tt.Key()) {
			return false // wl -> cut maps are tagged by construction
		}
		return carriesUntaggedCut(tt.Elem())
	}
	return false
}

// carriesWorldLine reports whether t provides a world-line tag. Containers
// of world-lines count (a []WorldLine running parallel to a []Cut is a tag),
// mirroring carriesUntaggedCut's container handling.
func carriesWorldLine(t types.Type) bool {
	if t == nil {
		return false
	}
	if isWorldLine(t) || isWorldLineTracker(t) {
		return true
	}
	switch tt := types.Unalias(t).(type) {
	case *types.Pointer:
		return carriesWorldLine(tt.Elem())
	case *types.Slice:
		return carriesWorldLine(tt.Elem())
	case *types.Array:
		return carriesWorldLine(tt.Elem())
	}
	return false
}

// structCarries reports, for a struct type, whether it has untagged cut
// fields and whether it has a world-line tag. A field whose own struct type
// is internally tagged (carries both) neutralizes its cut.
// atomic.Pointer[T] fields look through to T.
func structCarries(t types.Type, seen map[types.Type]bool) (hasCut, hasWL bool) {
	if t == nil || seen[t] {
		return false, false
	}
	seen[t] = true
	st, ok := deref(types.Unalias(t)).Underlying().(*types.Struct)
	if !ok {
		return false, false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		ft = lookThroughAtomicPointer(ft)
		if carriesWorldLine(ft) {
			hasWL = true
			continue
		}
		if carriesUntaggedCut(ft) {
			hasCut = true
			continue
		}
		// Nested struct field: internally tagged pairs are fine; a nested
		// struct with an untagged cut propagates the cut upward.
		if _, isFunc := ft.Underlying().(*types.Signature); isFunc {
			continue
		}
		if nested := namedType(ft); nested != nil {
			nc, nw := structCarries(nested, seen)
			if nc && !nw {
				hasCut = true
			}
			if nw && !nc {
				hasWL = true
			}
		}
	}
	return hasCut, hasWL
}

// lookThroughAtomicPointer unwraps atomic.Pointer[T] to *T so the snapshot
// pattern (cutSnap atomic.Pointer[cutSnapshot]) is inspected as the struct
// it publishes.
func lookThroughAtomicPointer(t types.Type) types.Type {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return t
	}
	if n.Obj().Pkg().Path() == "sync/atomic" && n.Obj().Name() == "Pointer" {
		if args := n.TypeArgs(); args != nil && args.Len() == 1 {
			return types.NewPointer(args.At(0))
		}
	}
	return t
}

func (c *CutWorldLineChecker) Run(u *Unit) []Diagnostic {
	var diags []Diagnostic
	// Struct rule.
	u.EachFile(func(p *Package, f *ast.File) {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj := p.Info.Defs[ts.Name]
				if obj == nil {
					continue
				}
				if _, isStruct := obj.Type().Underlying().(*types.Struct); !isStruct {
					continue
				}
				if hasCut, hasWL := structCarries(obj.Type(), map[types.Type]bool{}); hasCut && !hasWL {
					diags = append(diags, Diagnostic{
						Pos:   u.Position(ts.Pos()),
						Check: c.Name(),
						Message: fmt.Sprintf("struct %s carries a core.Cut but no world-line tag (core.WorldLine or WorldLineTracker field); cuts must travel with the world-line they were observed on",
							ts.Name.Name),
					})
				}
			}
		}
	})
	// Function rule (declared functions and interface methods).
	for _, fs := range declaredFuncs(u) {
		if d := c.checkSignature(u, fs.pkg, fs.decl, fs.name); d != nil {
			diags = append(diags, *d)
		}
	}
	diags = append(diags, c.checkInterfaces(u)...)
	return diags
}

func (c *CutWorldLineChecker) checkSignature(u *Unit, p *Package, fd *ast.FuncDecl, name string) *Diagnostic {
	obj, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig := obj.Type().(*types.Signature)
	if verb, ok := signatureViolation(sig); ok {
		return &Diagnostic{
			Pos:   u.Position(fd.Pos()),
			Check: c.Name(),
			Message: fmt.Sprintf("%s %s a core.Cut but no world-line appears in the signature or receiver scope",
				name, verb),
		}
	}
	return nil
}

func (c *CutWorldLineChecker) checkInterfaces(u *Unit) []Diagnostic {
	var diags []Diagnostic
	u.EachFile(func(p *Package, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			it, ok := ts.Type.(*ast.InterfaceType)
			if !ok {
				return true
			}
			for _, m := range it.Methods.List {
				ft, ok := p.Info.TypeOf(m.Type).(*types.Signature)
				if !ok || len(m.Names) == 0 {
					continue
				}
				if verb, bad := signatureViolation(ft); bad {
					diags = append(diags, Diagnostic{
						Pos:   u.Position(m.Pos()),
						Check: c.Name(),
						Message: fmt.Sprintf("interface method %s.%s %s a core.Cut but no world-line appears in the signature",
							ts.Name.Name, m.Names[0].Name, verb),
					})
				}
			}
			return false
		})
	})
	return diags
}

// signatureViolation reports whether sig moves an untagged cut — names a Cut
// without a WorldLine in params, results, or the receiver's struct — and how:
// "takes", "returns" or "passes and returns". Methods on the Cut type itself
// are exempt.
func signatureViolation(sig *types.Signature) (string, bool) {
	in, out, hasWL := false, false, false
	scan := func(tp *types.Tuple, isIn bool) {
		for i := 0; i < tp.Len(); i++ {
			t := tp.At(i).Type()
			if carriesWorldLine(t) {
				hasWL = true
			}
			if carriesUntaggedCut(t) {
				if isIn {
					in = true
				} else {
					out = true
				}
			}
		}
	}
	scan(sig.Params(), true)
	scan(sig.Results(), false)
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if isCut(rt) {
			return "", false // Cut's own algebra
		}
		if carriesWorldLine(rt) {
			hasWL = true
		}
		if _, rw := structCarries(rt, map[types.Type]bool{}); rw {
			hasWL = true
		}
	}
	switch {
	case hasWL || (!in && !out):
		return "", false
	case in && out:
		return "passes and returns", true
	case in:
		return "takes", true
	default:
		return "returns", true
	}
}
