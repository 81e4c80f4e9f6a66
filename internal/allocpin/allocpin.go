// Package allocpin is what the Test…ZeroAlloc pins measure through (Zero).
package allocpin

import (
	"runtime"
	"testing"
)

var skip string // why this build cannot measure (race.go); empty where it can

// Zero fails t on any allocation over runs calls of f after a warm-up call, at
// GOMAXPROCS(1), in a subtest, so that -run 'ZeroAlloc$/^$' runs setup alone.
// AllocsPerRun's truncated average would miss a branch that allocates rarely.
func Zero(t *testing.T, what string, runs int, f func()) {
	t.Run("measured", func(t *testing.T) {
		if skip != "" {
			t.Skip(skip)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.Gosched() // the parent test parks in t.Run, taking a sudog, before the count
		f()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&m1)
		if n := m1.Mallocs - m0.Mallocs; n != 0 {
			t.Fatalf("%s allocates %d times in %d calls, want 0", what, n, runs)
		}
	})
}
