package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// wireFuzzTargets maps each wire alias-decoder entry point to the fuzz
// target whose corpus must exercise it. A decode-bounds diagnostic anywhere
// in internal/wire means an unguarded access shipped without a seed that
// reproduces it, so the test demands the corpus entry before the fix or
// suppression lands.
var wireFuzzTargets = []string{
	"FuzzDecodeBatchRequest",
	"FuzzDecodeBatchReply",
	"FuzzDecodeError",
}

// repoSuiteBudget bounds the full six-checker run (load, type-check, call
// graph, summaries, all checkers) over the module. The suite gates CI on
// every push; if whole-program analysis cost creeps past this, the shared
// Unit caching has regressed (each checker rebuilding the call graph or the
// lock summaries instead of reusing them).
const repoSuiteBudget = 60 * time.Second

// TestRepoTreeClean runs the same analysis CI gates as
// `go run ./cmd/dpr-vet ./...` over the enclosing module — the full suite,
// whole-program checkers included — and fails on any diagnostic, keeping
// `go test` sufficient to catch a violation locally. It also pins the
// decode-bounds/fuzz pact (the wire decoder corpora must stay populated, and
// any decode-bounds finding demands a new seed) and the suite's runtime
// budget.
//
// Two invariants it states directly instead of by checker. A migration record
// is registered at exactly one place, migration.Migrate, whose deferred
// resolver is what retires it on every path (TestMigrateLeavesNoRecord). A
// second caller of BeginMigrate would need a resolver of its own. And a
// recovery round is run in one place, cluster.Manager.OnFailure, with its one
// resume rule: outside the metadata package only it may call BeginRecovery or
// CompleteRecoveryFor.
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks and compiles the whole module")
	}
	start := time.Now()
	u, err := Load(LoadConfig{Dir: "."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := Run(u, DefaultCheckers())
	if elapsed := time.Since(start); elapsed > repoSuiteBudget {
		t.Errorf("full suite took %v, over the %v budget: a checker is likely rebuilding a shared artifact instead of using the Unit cache", elapsed, repoSuiteBudget)
	}
	for _, d := range diags {
		t.Errorf("%s", d.String())
		if d.Check == "decode-bounds" {
			t.Errorf("decode-bounds fired: add a truncated-frame seed under internal/wire/testdata/fuzz/ reproducing the unguarded access, then guard or justify it")
		}
	}
	var begins []string
	const round = "dpr/internal/cluster.(*Manager).OnFailure"
	for _, fs := range declaredFuncs(u) {
		if fs.pkg.Name == "metadata" {
			continue // the store and its RPC pair
		}
		caller := fs.pkg.Path + "." + fs.name
		ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "BeginMigrate":
				if fs.decl.Name.Name != "BeginMigrate" { // not a forwarder that wraps the store
					begins = append(begins, caller)
				}
			case "BeginRecovery", "CompleteRecoveryFor":
				if caller != round {
					t.Errorf("%s calls %s: a recovery round is cluster.Manager.OnFailure's", caller, sel.Sel.Name)
				}
			}
			return true
		})
	}
	if len(begins) != 1 || begins[0] != "dpr/internal/migration.Migrate" {
		t.Errorf("BeginMigrate is called from %v; its one caller is migration.Migrate, which defers the record's resolver", begins)
	}
	for _, target := range wireFuzzTargets {
		dir := filepath.Join(u.ModuleDir, "internal", "wire", "testdata", "fuzz", target)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("fuzz corpus %s: %v", dir, err)
			continue
		}
		if len(entries) == 0 {
			t.Errorf("fuzz corpus %s is empty", dir)
		}
	}
}
