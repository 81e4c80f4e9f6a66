// Package leakcheck asserts, at the teardown of a test that booted the stack,
// that every goroutine the stack started has exited: the observable form of
// "each `go` statement has a stop path hanging off its owner's Stop/Close".
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace bounds how long Check waits for goroutines that were told to stop —
// a connection handler seeing its closed socket, a timer callback in flight —
// to finish doing so.
const grace = 2 * time.Second

// Check fails t if, after everything the test started has been stopped, a
// goroutine running or created by this module's code (a dpr/internal/ frame)
// is still alive once the grace period has passed. Left out: test goroutines
// themselves (the caller, its parents blocked in t.Run, parallel siblings)
// and hrtimer's poller, which is process-wide and has no owner to stop it.
// A test that has already failed said why; Check adds nothing to it.
func Check(t testing.TB) {
	t.Helper()
	if t.Failed() {
		return
	}
	deadline := time.Now().Add(grace)
	for {
		leaked := surviving()
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%d goroutine(s) of this module survive teardown:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// surviving returns the stack of every goroutine Check counts as a leak.
func surviving() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(strings.TrimSpace(string(buf)), "\n\n") {
		switch {
		case !strings.Contains(g, "dpr/internal/"):
		case strings.Contains(g, "\ntesting.tRunner("):
		case strings.Contains(g, "dpr/internal/hrtimer.readPoller("):
		default:
			out = append(out, g)
		}
	}
	return out
}
