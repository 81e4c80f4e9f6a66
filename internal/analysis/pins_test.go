package analysis

import (
	"bufio"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// noAllocDirective marks a function held to zero allocations by the pins:
// the tests named Test…ZeroAlloc, which measure through allocpin.Zero.
const noAllocDirective = "//dpr:noalloc"

// pinRun selects the pins in a test binary; pinTest finds one in a source file.
const pinRun = `^Test\w*ZeroAlloc$`

var pinTest = regexp.MustCompile(`(?m)^func Test\w*ZeroAlloc\(`)

// coverBlock is one line of a text coverage profile: file:sl.sc,el.ec n count.
var coverBlock = regexp.MustCompile(`^(.+):(\d+)\.(\d+),(\d+)\.(\d+) (\d+) (\d+)$`)

// TestNoAllocPinsCover proves that the pins state the whole //dpr:noalloc
// contract. It builds the packages that hold pins with coverage of every
// package that has an annotated function, and runs their pins twice: whole,
// and without subtests, where allocpin.Zero measures, so that only a test's
// setup runs. A block of an annotated function counts as pinned when the first
// run executed it more often than the second. Every block must be pinned,
// except one that ends in the return of an error or a *wire.ErrorReply: a
// reject path, which may allocate the reply it returns.
func TestNoAllocPinsCover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the pins under coverage")
	}
	u := repoUnit(t)
	start := time.Now()
	annotated := noAllocFuncs(u)
	if len(annotated) == 0 {
		t.Fatal("no //dpr:noalloc function in the module")
	}
	coverPkgs := map[string]bool{}
	dirOf := map[string]string{} // import path -> directory
	for _, p := range u.Packages {
		dirOf[p.Path] = p.Dir
	}
	for _, fs := range annotated {
		coverPkgs[fs.pkg.Path] = true
	}
	pinDirs := pinPackages(t, u.ModuleDir)

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "bin")
	args := []string{"test", "-c", "-o", bin + string(filepath.Separator),
		"-covermode=count", "-coverpkg=" + strings.Join(sortedKeys(coverPkgs), ",")}
	for _, d := range pinDirs {
		rel, err := filepath.Rel(u.ModuleDir, d)
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, "./"+filepath.ToSlash(rel))
	}
	goTool(t, u.ModuleDir, args...)
	whole := runPins(t, dirOf, tmp, bin, pinDirs, pinRun)
	setup := runPins(t, dirOf, tmp, bin, pinDirs, pinRun+"/^$") // no subtest matches
	if elapsed := repoState.took + time.Since(start); elapsed > repoSuiteBudget {
		t.Errorf("building and running the pins took %v, over the %v budget", elapsed, repoSuiteBudget)
	}

	for _, fs := range annotated {
		first, last := u.Position(fs.decl.Pos()), u.Position(fs.decl.Body.Rbrace)
		var blocks []block
		for key, b := range whole {
			if key.file == first.Filename && b.startLine >= first.Line && b.endLine <= last.Line && b.stmts > 0 {
				blocks = append(blocks, b)
			}
		}
		if len(blocks) == 0 {
			t.Errorf("%s: //dpr:noalloc %s is not in the pins' coverage profile", first, fs.name)
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].startLine < blocks[j].startLine })
		for _, b := range blocks {
			switch {
			case b.count > setup[b.blockKey].count: // pinned
			case rejectBlock(u, fs, b):
				t.Logf("%s:%d: reject path of %s, not pinned", b.file, b.startLine, fs.name)
			default:
				t.Errorf("%s:%d: no pin ran lines %d-%d of //dpr:noalloc %s",
					b.file, b.startLine, b.startLine, b.endLine, fs.name)
			}
		}
	}
}

// runPins runs the tests that match pattern in every pin package's test
// binary and sums their coverage profiles into one count per block.
func runPins(t *testing.T, dirOf map[string]string, tmp, bin string, pinDirs []string, pattern string) map[blockKey]block {
	t.Helper()
	counts := map[blockKey]block{}
	prof := filepath.Join(tmp, "cover.out") // read before the next run rewrites it
	for _, d := range pinDirs {
		cmd := exec.Command(filepath.Join(bin, filepath.Base(d)+".test"), "-test.run", pattern,
			"-test.count=1", "-test.coverprofile="+prof)
		cmd.Dir = d
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("pins of %s (-run '%s'): %v\n%s", d, pattern, err, out)
		}
		readProfile(t, dirOf, prof, counts)
	}
	return counts
}

// noAllocFuncs lists the functions whose doc comment carries the directive.
func noAllocFuncs(u *Unit) []funcSpan {
	var out []funcSpan
	for _, fs := range declaredFuncs(u) {
		if fs.decl.Doc == nil {
			continue
		}
		for _, c := range fs.decl.Doc.List {
			if c.Text == noAllocDirective {
				out = append(out, fs)
				break
			}
		}
	}
	return out
}

// pinPackages returns the directories of the module whose tests hold a pin.
func pinPackages(t *testing.T, root string) []string {
	t.Helper()
	dirs := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || fileExists(filepath.Join(p, "go.mod"))) {
				return filepath.SkipDir // fixtures, and modules of their own
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if pinTest.Match(src) {
			dirs[filepath.Dir(p)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no Test…ZeroAlloc pin in the module")
	}
	return sortedKeys(dirs)
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// goTool runs the go command in dir, with GOFLAGS cleared so the caller's
// build flags (a -race run, say) do not change what is built.
func goTool(t *testing.T, dir string, args ...string) {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}

type blockKey struct {
	file                                 string
	startLine, startCol, endLine, endCol int
}

type block struct {
	blockKey
	stmts int
	count int64
}

// readProfile adds a text coverage profile's counts into counts, keyed by
// each block's absolute source file and extent.
func readProfile(t *testing.T, dirOf map[string]string, prof string, counts map[blockKey]block) {
	t.Helper()
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := coverBlock.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		pkgDir, ok := dirOf[path.Dir(m[1])]
		if !ok {
			t.Fatalf("coverage profile names %s, outside the module", m[1])
		}
		n := make([]int, 5)
		for i := range n {
			n[i], _ = strconv.Atoi(m[i+2])
		}
		count, _ := strconv.ParseInt(m[7], 10, 64)
		key := blockKey{filepath.Join(pkgDir, path.Base(m[1])), n[0], n[1], n[2], n[3]}
		b := counts[key]
		b.blockKey, b.stmts = key, n[4]
		b.count += count
		counts[key] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// rejectBlock reports whether the block is a reject path: the body of an if,
// else or case branch whose last statement returns an error or a
// *wire.ErrorReply that is not the nil literal. A function's top-level block is
// never one, so a success path that ends in `return err` must be pinned.
func rejectBlock(u *Unit, fs funcSpan, b block) bool {
	tf := u.Fset.File(fs.decl.Pos())
	at := func(line, col int) token.Pos { return tf.LineStart(line) + token.Pos(col-1) }
	start, end := at(b.startLine, b.startCol), at(b.endLine, b.endCol)
	// The block's statements are the members of one statement list that start
	// inside it; a nested list starts past the block's end, at its brace.
	var last ast.Stmt
	var inBranch bool
	consider := func(list []ast.Stmt, branch bool) {
		for _, s := range list {
			if s.Pos() >= start && s.Pos() < end && (last == nil || s.Pos() > last.Pos()) {
				last, inBranch = s, branch
			}
		}
	}
	branches := map[*ast.BlockStmt]bool{}
	ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt: // visited before its blocks
			branches[n.Body] = true
			if e, ok := n.Else.(*ast.BlockStmt); ok {
				branches[e] = true
			}
		case *ast.BlockStmt:
			consider(n.List, branches[n])
		case *ast.CaseClause:
			consider(n.Body, true)
		case *ast.CommClause:
			consider(n.Body, true)
		}
		return true
	})
	if !inBranch {
		return false
	}
	ret, ok := last.(*ast.ReturnStmt)
	if !ok {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	for _, r := range ret.Results {
		tv, ok := fs.pkg.Info.Types[r]
		if !ok || tv.IsNil() {
			continue
		}
		if types.Identical(tv.Type, errType) {
			return true
		}
		if p, ok := tv.Type.(*types.Pointer); ok && isPkgType(p.Elem(), "dpr/internal/wire", "ErrorReply", true) {
			return true
		}
	}
	return false
}

// TestRejectBlock holds rejectBlock to the fixture's shapes: a branch that
// returns an error is a reject path; a top-level block or a loop body that
// returns one, and a branch that returns nil, are not.
func TestRejectBlock(t *testing.T) {
	u, _ := fixture(t)
	funcs := map[string]funcSpan{}
	for _, fs := range declaredFuncs(u) {
		if fs.pkg.Path == "fixture/noallocreject" {
			funcs[fs.name] = fs
		}
	}
	// span is a coverage block's extent: from a list's opening brace or
	// colon to past its end.
	span := func(from, to token.Pos) block {
		s, e := u.Position(from), u.Position(to)
		return block{blockKey: blockKey{s.Filename, s.Line, s.Column, e.Line, e.Column}, stmts: 1}
	}
	for _, c := range []struct {
		fn   string
		pick func(*ast.BlockStmt) block
		want bool
	}{
		{"Write", func(b *ast.BlockStmt) block { return span(b.Lbrace, b.Rbrace+1) }, false},
		{"Check", func(b *ast.BlockStmt) block {
			body := b.List[0].(*ast.IfStmt).Body
			return span(body.Lbrace, body.Rbrace+1)
		}, true},
		{"Parse", func(b *ast.BlockStmt) block {
			body := b.List[1].(*ast.IfStmt).Body
			return span(body.Lbrace, body.Rbrace+1)
		}, true},
		{"Kind", func(b *ast.BlockStmt) block {
			cc := b.List[0].(*ast.SwitchStmt).Body.List[0].(*ast.CaseClause)
			return span(cc.Colon+1, cc.End())
		}, false},
		{"Kind", func(b *ast.BlockStmt) block {
			cc := b.List[0].(*ast.SwitchStmt).Body.List[1].(*ast.CaseClause)
			return span(cc.Colon+1, cc.End())
		}, true},
		{"Drain", func(b *ast.BlockStmt) block {
			body := b.List[0].(*ast.RangeStmt).Body
			return span(body.Lbrace, body.Rbrace+1)
		}, false},
	} {
		fs, ok := funcs[c.fn]
		if !ok {
			t.Fatalf("fixture has no func %s", c.fn)
		}
		b := c.pick(fs.decl.Body)
		if got := rejectBlock(u, fs, b); got != c.want {
			t.Errorf("%s:%d (%s): rejectBlock = %v, want %v", b.file, b.startLine, c.fn, got, c.want)
		}
	}
}
