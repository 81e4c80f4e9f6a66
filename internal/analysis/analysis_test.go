package analysis

import (
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The tests run the full driver once over the fixture module in
// testdata/src (its own go.mod, so the go tool and the loader both keep it
// out of the enclosing module) and compare the diagnostics against
// `// want "regex"` comments in the fixture sources. A line may carry
// several quoted regexes; every diagnostic must match a want on its line
// and every want must be hit.

var fixtureState struct {
	once  sync.Once
	unit  *Unit
	diags []Diagnostic
	err   error
}

func fixture(t *testing.T) (*Unit, []Diagnostic) {
	t.Helper()
	fixtureState.once.Do(func() {
		u, err := Load(LoadConfig{Dir: filepath.Join("testdata", "src")})
		if err != nil {
			fixtureState.err = err
			return
		}
		fixtureState.unit = u
		fixtureState.diags = Run(u, DefaultCheckers())
	})
	if fixtureState.err != nil {
		t.Fatalf("loading fixture module: %v", fixtureState.err)
	}
	return fixtureState.unit, fixtureState.diags
}

// pkgDiags filters the fixture run down to one fixture package directory.
func pkgDiags(t *testing.T, diags []Diagnostic, pkg string) []Diagnostic {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", pkg))
	if err != nil {
		t.Fatal(err)
	}
	var out []Diagnostic
	for _, d := range diags {
		if filepath.Dir(d.Pos.Filename) == dir {
			out = append(out, d)
		}
	}
	return out
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantQuoted = regexp.MustCompile(`"([^"]*)"`)

// collectWants parses `// want "regex" ["regex" ...]` comments from every
// fixture file in pkg. marker is "want" for dpr-vet's own diagnostics and
// "want-vet" for the lines `go vet` must reject instead.
func collectWants(t *testing.T, pkg, marker string) []*want {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, rest, ok := strings.Cut(line, "// "+marker+" ")
			if !ok {
				continue
			}
			ms := wantQuoted.FindAllStringSubmatch(rest, -1)
			if len(ms) == 0 {
				t.Fatalf("%s:%d: malformed want comment: %s", path, i+1, line)
			}
			for _, m := range ms {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &want{file: abs, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// assertMatches pairs diagnostics with same-line wants in both directions.
func assertMatches(t *testing.T, diags []Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d.String())
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

// TestCheckerFixtures runs every checker against its failing and passing
// fixture packages: the failing package must produce each wanted diagnostic
// (and nothing else), the passing package must be silent.
func TestCheckerFixtures(t *testing.T) {
	cases := []struct {
		check, bad, ok string
	}{
		{"mutex-discipline", "mutexbad", "mutexok"},
		{"hotpath-noalloc", "noallocbad", "noallocok"},
		{"cut-worldline", "cutwlbad", "cutwlok"},
		{"decode-bounds", "boundsbad", "boundsok"},
		{"epoch-discipline", "epochbad", "epochok"},
		{"lock-order-global", "lockglobalbad", "lockglobalok"},
	}
	for _, tc := range cases {
		t.Run(tc.check, func(t *testing.T) {
			_, diags := fixture(t)
			bad := pkgDiags(t, diags, tc.bad)
			n := 0
			for _, d := range bad {
				if d.Check == tc.check {
					n++
				}
			}
			if n == 0 {
				t.Errorf("checker %s produced no diagnostics on %s", tc.check, tc.bad)
			}
			assertMatches(t, bad, collectWants(t, tc.bad, "want"))
			for _, d := range pkgDiags(t, diags, tc.ok) {
				t.Errorf("clean fixture %s: %s", tc.ok, d.String())
			}
		})
	}
}

// vetLine is one finding in `go vet`'s output, path relative to the module.
var vetLine = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: (.*)$`)

// TestFixturesRejectedByVet: the by-value copies of a lock or of a typed
// atomic wrapper are copylocks findings, so no dpr-vet checker repeats them;
// this keeps that true. `go vet` over the two fixture packages that hold the
// copy shapes must report every `// want-vet` line and nothing else.
func TestFixturesRejectedByVet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet")
	}
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "./mutexbad", "./atomicbad")
	cmd.Dir = src
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet accepted the copy fixtures:\n%s", out)
	}
	var diags []Diagnostic
	for _, line := range strings.Split(string(out), "\n") {
		if m := vetLine.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[2])
			diags = append(diags, Diagnostic{Check: "vet", Message: m[3],
				Pos: token.Position{Filename: filepath.Join(src, m[1]), Line: n}})
		}
	}
	wants := append(collectWants(t, "mutexbad", "want-vet"), collectWants(t, "atomicbad", "want-vet")...)
	if len(wants) == 0 {
		t.Fatal("no // want-vet lines found")
	}
	assertMatches(t, diags, wants)
}

// atomicGrepRules are `make atomic-check`'s two patterns: a sync/atomic free
// function applied to an address, and a typed wrapper overwritten with a zero
// literal (the one copy shape copylocks exempts).
var atomicGrepRules = []string{
	`atomic\.(Load|Store|Add|Swap|CompareAndSwap|And|Or)[A-Z][A-Za-z0-9]*\(&`,
	`[^:]= *atomic\.(Bool|Int32|Int64|Uint32|Uint64|Uintptr|Value|Pointer\[.*\])\{\}`,
}

// TestAtomicGrepRules holds the Makefile to those patterns and the patterns
// to the fixture: they match exactly the `// want-grep` lines of atomicbad.
func TestAtomicGrepRules(t *testing.T) {
	makefile, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	var res []*regexp.Regexp
	for _, rule := range atomicGrepRules {
		if !strings.Contains(string(makefile), "'"+rule+"'") {
			t.Errorf("Makefile's atomic-check does not carry the pattern %s", rule)
		}
		res = append(res, regexp.MustCompile(rule))
	}
	data, err := os.ReadFile(filepath.Join("testdata", "src", "atomicbad", "atomicbad.go"))
	if err != nil {
		t.Fatal(err)
	}
	wanted := 0
	for i, line := range strings.Split(string(data), "\n") {
		want := strings.Contains(line, "// want-grep")
		got := false
		for _, re := range res {
			got = got || re.MatchString(line)
		}
		if want {
			wanted++
		}
		if got != want {
			t.Errorf("atomicbad.go:%d: matched by atomic-check = %v, want %v: %s", i+1, got, want, line)
		}
	}
	if wanted == 0 {
		t.Error("no // want-grep lines found")
	}
}

// TestIgnoreRequiresJustification: a bare //dpr:ignore and one without a
// justification are diagnostics themselves, and the malformed directive
// must not suppress the finding it sits on.
func TestIgnoreRequiresJustification(t *testing.T) {
	_, diags := fixture(t)
	bad := pkgDiags(t, diags, "ignorebad")
	assertHas := func(check, pattern string) {
		t.Helper()
		re := regexp.MustCompile(pattern)
		for _, d := range bad {
			if d.Check == check && re.MatchString(d.Message) {
				return
			}
		}
		t.Errorf("ignorebad: no %s diagnostic matching %q in %v", check, pattern, bad)
	}
	assertHas("dpr-ignore", `needs a check name and a justification`)
	assertHas("dpr-ignore", `//dpr:ignore cut-worldline needs a justification`)
	assertHas("cut-worldline", `struct Unjustified carries a core\.Cut`)
	if len(bad) != 3 {
		for _, d := range bad {
			t.Logf("got: %s", d.String())
		}
		t.Errorf("ignorebad: got %d diagnostics, want 3", len(bad))
	}
}

// TestJustifiedIgnoreSuppresses: a well-formed standalone suppression
// silences the next line and produces nothing of its own.
func TestJustifiedIgnoreSuppresses(t *testing.T) {
	_, diags := fixture(t)
	for _, d := range pkgDiags(t, diags, "ignoreok") {
		t.Errorf("ignoreok: %s", d.String())
	}
}

// TestFixtureCleanPackagesSilent guards against checker cross-talk: no
// diagnostic may land outside the deliberately-failing fixture packages.
func TestFixtureCleanPackagesSilent(t *testing.T) {
	_, diags := fixture(t)
	failing := map[string]bool{
		"mutexbad": true, "noallocbad": true,
		"cutwlbad": true, "boundsbad": true, "ignorebad": true,
		"epochbad": true, "lockglobalbad": true,
	}
	for _, d := range diags {
		if base := filepath.Base(filepath.Dir(d.Pos.Filename)); !failing[base] {
			t.Errorf("diagnostic in clean fixture package %s: %s", base, d.String())
		}
	}
}
