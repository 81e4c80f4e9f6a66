// Package statetest holds a store to the commit half of
// libdpr.StateObject's contract, the part the commit pump relies on.
package statetest

import (
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/libdpr"
)

// Run checks so, a store no commit has begun on, and takes its OnPersist.
// BeginCommitIdle starts a seal on an idle store; OnPersist fires once per
// advance, timed 0 to the wall time since the begin. Until that call returns
// the seal is under way: BeginCommit at its version starts nothing, and
// BeginCommitIdle declines, or waits. So does BeginCommitIdle after a landing
// the caller has not read.
func Run(t *testing.T, so libdpr.StateObject) {
	type landing struct {
		v    core.Version
		took time.Duration
	}
	landed, gate := make(chan landing, 8), make(chan struct{})
	so.OnPersist(func(v core.Version, took time.Duration) {
		landed <- landing{v, took}
		<-gate // the first seal's call runs until gate closes
	})
	last := so.PersistedVersion()
	lands := func(begin time.Time) { // the next landing, an advance
		t.Helper()
		select {
		case l := <-landed:
			if since := time.Since(begin); l.v <= last || l.took < 0 || l.took > since {
				t.Errorf("OnPersist(%d, %v) after %d: want an advance, timed 0 to the %v since its begin", l.v, l.took, last, since)
			}
			last = l.v
		case <-time.After(5 * time.Second):
			t.Fatalf("no OnPersist within 5s of a seal's begin (last %d)", last)
		}
	}
	p, v, begin := last, so.CurrentVersion(), time.Now()
	first, probe := make(chan bool, 1), make(chan bool, 2)
	go func() { // a store may seal on the caller's goroutine
		started, err := so.BeginCommitIdle(v, p)
		again, _ := so.BeginCommitIdle(so.CurrentVersion(), p) // under way, or landed unread
		first <- started && err == nil && !again
	}()
	lands(begin)
	go func() {
		_ = so.BeginCommit(v)
		started, _ := so.BeginCommitIdle(so.CurrentVersion(), so.PersistedVersion())
		probe <- started
	}()
	select {
	case started := <-probe:
		if started {
			t.Error("BeginCommitIdle started a seal while the last one's OnPersist ran")
		}
		probe <- false
	case <-time.After(50 * time.Millisecond): // waiting for the seal to end
	}
	begin = time.Now()
	close(gate)
	if !<-first {
		t.Error("BeginCommitIdle started no seal on an idle store, or a second one on top of it")
	}
	if <-probe {
		lands(begin)
	}
	select {
	case l := <-landed:
		t.Errorf("OnPersist(%d) after %d, with no seal begun", l.v, last)
	case <-time.After(50 * time.Millisecond):
	}
	if started, _ := so.BeginCommitIdle(so.CurrentVersion(), p); started || so.PersistedVersion() != last {
		t.Errorf("BeginCommitIdle with persisted %d read before %d landed: started %v, persisted %d", p, last, started, so.PersistedVersion())
	}
}
