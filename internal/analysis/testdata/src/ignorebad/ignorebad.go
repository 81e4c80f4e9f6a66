// Package ignorebad is the failing fixture for //dpr:ignore: directives
// without a check name or without a justification are themselves
// diagnostics, and a malformed directive suppresses nothing. So are stale
// ones: a check name no checker has, and a suppression with nothing to
// suppress.
package ignorebad

import "fixture/core"

//dpr:ignore
func A() {}

//dpr:ignore cut-worldline
type Unjustified struct {
	Cut core.Cut
}

//dpr:ignore hotpath-noalloc a checker that is no longer registered
func B() {}

//dpr:ignore cut-worldline nothing on the next line carries a cut
type Tagless struct {
	N int
}
