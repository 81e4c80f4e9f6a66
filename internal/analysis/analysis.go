// Package analysis is a from-scratch static-analysis driver for the DPR
// codebase, built on the standard library's go/parser + go/ast + go/types
// only (no x/tools). It type-checks the whole module and runs a suite of
// DPR-specific checkers that turn the repo's hand-enforced invariants —
// mutex release and ordering, epoch-slot pairing and no blocking while
// entered, allocation-free hot paths, world-line-tagged cuts, bounds-checked
// alias decoders — into a mechanical gate (cmd/dpr-vet). An invariant that a
// type, `go vet`, a grep or a test at teardown can state is not checked here
// (DESIGN.md "Static analysis" has the table).
//
// Checkers report Diagnostics; suppressions are written in the source as
//
//	//dpr:ignore <check>[,<check>...] <justification>
//
// and every suppression must carry a non-empty justification, or the
// suppression itself becomes a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// Checker is one invariant checker run over a loaded Unit.
type Checker interface {
	Name() string
	Run(u *Unit) []Diagnostic
}

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Name  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Unit is the whole loaded module: every package, sharing one FileSet and
// one type-object world, so a field object seen in package A is identical to
// the same field seen from package B.
//
// The unit also owns the whole-program artifacts the checkers share — the
// declared-function index, the call graph, and the held-lock summaries — so
// one parse+type-check pass feeds every checker instead of each checker
// re-deriving its own view of the module.
type Unit struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string
	Packages   []*Package // dependency order (imports before importers)

	cache struct {
		funcs        []funcSpan
		funcsBuilt   bool
		graph        *callGraph
		summaries    *lockSummaries
		drainCoupled map[string]token.Pos
	}
}

// Position resolves a token.Pos against the unit's FileSet.
func (u *Unit) Position(p token.Pos) token.Position { return u.Fset.Position(p) }

// diagf builds one checker's diagnostic at a position.
func (u *Unit) diagf(check string, at token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: u.Position(at), Check: check, Message: fmt.Sprintf(format, args...)}
}

// EachFile invokes fn for every file of every package.
func (u *Unit) EachFile(fn func(p *Package, f *ast.File)) {
	for _, p := range u.Packages {
		for _, f := range p.Files {
			fn(p, f)
		}
	}
}

// DefaultCheckers returns the full DPR checker suite.
func DefaultCheckers() []Checker {
	return []Checker{
		&MutexChecker{},
		&NoAllocChecker{},
		&CutWorldLineChecker{},
		&DecodeBoundsChecker{},
		&EpochChecker{},
		&LockOrderGlobalChecker{},
	}
}

// CheckerNames lists the names of the given checkers.
func CheckerNames(cs []Checker) []string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name()
	}
	return names
}

// Run executes the checkers over the unit, applies //dpr:ignore
// suppressions, and returns the surviving diagnostics sorted by position.
// Malformed suppressions (no justification, unknown syntax) are returned as
// diagnostics of check "dpr-ignore".
func Run(u *Unit, checkers []Checker) []Diagnostic {
	var diags []Diagnostic
	for _, c := range checkers {
		diags = append(diags, c.Run(u)...)
	}
	ign, ignDiags := collectIgnores(u)
	diags = ign.filter(diags)
	diags = append(diags, ignDiags...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Check < diags[j].Check
	})
	return diags
}

// ---- shared type helpers ----

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedType returns the named type behind t (through one pointer and
// aliases), or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := deref(types.Unalias(t)).(*types.Named)
	return n
}

// isPkgType reports whether t is (a pointer to) the named type pkgPath.name.
// The package is matched by exact import path or, when lastSegment is true,
// by the path's last segment — fixture corpora declare their own mini "core"
// package and still exercise the core-type checkers.
func isPkgType(t types.Type, pkgPath, name string, lastSegment bool) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Name() != name {
		return false
	}
	p := n.Obj().Pkg().Path()
	if p == pkgPath {
		return true
	}
	if lastSegment {
		want := pkgPath[strings.LastIndex(pkgPath, "/")+1:]
		return p == want || strings.HasSuffix(p, "/"+want)
	}
	return false
}

// pkgShortName returns the last segment of a package path ("" for nil).
func pkgShortName(p *types.Package) string {
	if p == nil {
		return ""
	}
	path := p.Path()
	return path[strings.LastIndex(path, "/")+1:]
}

// exprString renders an expression compactly (types.ExprString).
func exprString(e ast.Expr) string { return types.ExprString(e) }

// funcSpan describes a declared function's extent in a file.
type funcSpan struct {
	pkg       *Package
	decl      *ast.FuncDecl
	name      string // receiver-qualified, e.g. (*Worker).Reply
	file      string
	startLine int
	endLine   int
}

// declaredFuncs lists every FuncDecl with a body across the unit. The list
// is built once and cached on the unit: every checker iterates it, and the
// call graph indexes into it.
func declaredFuncs(u *Unit) []funcSpan {
	if u.cache.funcsBuilt {
		return u.cache.funcs
	}
	var out []funcSpan
	u.EachFile(func(p *Package, f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			start := u.Position(fd.Pos())
			end := u.Position(fd.Body.Rbrace)
			out = append(out, funcSpan{
				pkg:       p,
				decl:      fd,
				name:      funcDisplayName(fd),
				file:      start.Filename,
				startLine: start.Line,
				endLine:   end.Line,
			})
		}
	})
	u.cache.funcs = out
	u.cache.funcsBuilt = true
	return out
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + exprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}
