package analysis

import (
	"go/ast"
	"go/token"
	"os"
	"strings"
)

// ignorePrefix introduces a suppression comment:
//
//	//dpr:ignore <check>[,<check>...] <justification>
//
// A trailing comment suppresses matching diagnostics on its own line; a
// standalone comment (nothing but whitespace before it on the line)
// suppresses the line below it. The justification is mandatory: a bare
// //dpr:ignore is itself a diagnostic, so every suppression documents why
// the invariant does not apply at that site. So is a stale one: a check name
// no checker has, or a suppression that a checker which ran left unused.
const ignorePrefix = "dpr:ignore"

type ignoreKey struct {
	file  string
	line  int
	check string
}

// ignoreSet maps each suppressed (line, check) to the directive that wrote it.
type ignoreSet map[ignoreKey]*suppression

type suppression struct {
	pos  token.Position
	used bool
}

func (s ignoreSet) filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if sup := s[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Check}]; sup != nil {
			sup.used = true
			continue
		}
		out = append(out, d)
	}
	return out
}

// stale reports, after filter, the suppressions that name no registered
// checker and those that suppressed nothing of a checker that ran.
func (s ignoreSet) stale(registered, ran map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for k, sup := range s {
		msg := k.check + " suppresses nothing"
		if !registered[k.check] {
			msg = "names no checker " + k.check
		} else if !ran[k.check] || sup.used {
			continue
		}
		diags = append(diags, Diagnostic{Pos: sup.pos, Check: "dpr-ignore", Message: "//dpr:ignore " + msg})
	}
	return diags
}

// collectIgnores scans every comment in the unit for //dpr:ignore
// directives. Malformed directives (no check name, no justification) come
// back as "dpr-ignore" diagnostics so the gate fails on undocumented
// suppressions.
func collectIgnores(u *Unit) (ignoreSet, []Diagnostic) {
	set := make(ignoreSet)
	var diags []Diagnostic
	srcCache := make(map[string][]byte)
	u.EachFile(func(p *Package, f *ast.File) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+ignorePrefix)
				if !ok {
					continue
				}
				pos := u.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					diags = append(diags, Diagnostic{Pos: pos, Check: "dpr-ignore",
						Message: "//dpr:ignore needs a check name and a justification"})
					continue
				}
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{Pos: pos, Check: "dpr-ignore",
						Message: "//dpr:ignore " + fields[0] + " needs a justification"})
					continue
				}
				line := pos.Line
				if standaloneComment(srcCache, pos.Filename, pos.Line, pos.Column) {
					line++ // comment on its own line guards the next line
				}
				for _, check := range strings.Split(fields[0], ",") {
					if check = strings.TrimSpace(check); check != "" {
						set[ignoreKey{pos.Filename, line, check}] = &suppression{pos: pos}
					}
				}
			}
		}
	})
	return set, diags
}

// standaloneComment reports whether only whitespace precedes the comment on
// its source line (so the suppression applies to the following line).
func standaloneComment(cache map[string][]byte, file string, line, col int) bool {
	src, ok := cache[file]
	if !ok {
		src, _ = os.ReadFile(file)
		cache[file] = src
	}
	if src == nil {
		return false
	}
	lines := strings.Split(string(src), "\n")
	if line-1 >= len(lines) || col-1 > len(lines[line-1]) {
		return false
	}
	return strings.TrimSpace(lines[line-1][:col-1]) == ""
}

// directiveComments returns every comment in the unit whose text begins with
// the given //dpr:<name> directive, paired with its position and the text
// after the directive. The lock-order annotations are read through it.
func directiveComments(u *Unit, directive string) []directiveAt {
	var out []directiveAt
	u.EachFile(func(_ *Package, f *ast.File) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, "//"+directive); ok {
					if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
						out = append(out, directiveAt{pos: c.Pos(), text: strings.TrimSpace(rest)})
					}
				}
			}
		}
	})
	return out
}

type directiveAt struct {
	pos  token.Pos
	text string
}
