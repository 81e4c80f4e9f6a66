package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/metadata"
)

// member stands in for a live worker the way the round sees one: nothing
// commands it; it watches the finder, and when the world-line moves past the
// one it last joined it restores itself and acks. A restore that fails is
// tried again on the next change or heartbeat.
type member struct {
	id      core.WorkerID
	meta    *metadata.Store
	restore func(wl core.WorldLine) error // nil: every restore succeeds at once
	joined  atomic.Uint64                 // the world-line it last joined
}

func (m *member) ID() core.WorkerID { return m.id }

// startMember registers id and runs its watch loop until the test ends.
func startMember(t *testing.T, meta *metadata.Store, id core.WorkerID, restore func(core.WorldLine) error) *member {
	t.Helper()
	meta.RegisterWorker(id, "w")
	m := &member{id: id, meta: meta, restore: restore}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var since uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			since, _ = meta.WaitStateChange(since, 5*time.Millisecond) // the heartbeat bounds a missed change
			wl := meta.WorldLine()
			if uint64(wl) <= m.joined.Load() || (m.restore != nil && m.restore(wl) != nil) {
				continue
			}
			m.joined.Store(uint64(wl)) // before the ack, as a worker advances before it acks
			meta.AckWorldLine(id, wl)
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
	})
	return m
}

func TestOnFailureRollsBackAll(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	mgr := NewManager(meta)
	a := startMember(t, meta, 1, nil)
	b := startMember(t, meta, 2, nil)
	meta.ReportVersion(1, 3, nil)
	meta.ReportVersion(2, 3, nil)
	wl, cut, err := mgr.OnFailure()
	if err != nil {
		t.Fatal(err)
	}
	if wl != 1 || cut.Get(1) != 3 {
		t.Fatalf("wl=%d cut=%v", wl, cut)
	}
	if a.joined.Load() != 1 || b.joined.Load() != 1 {
		t.Fatalf("round resumed before every member rolled back: joined %d and %d", a.joined.Load(), b.joined.Load())
	}
	if meta.Frozen() {
		t.Fatal("DPR progress must resume after recovery")
	}
	if mgr.Recoveries() != 1 {
		t.Fatalf("recoveries = %d", mgr.Recoveries())
	}
}

// gatedRestore parks each restore until its world-line is released, so tests
// can hold a recovery round open while a second failure arrives and then let
// the rounds finish in a chosen order.
type gatedRestore struct {
	entered chan core.WorldLine

	mu      sync.Mutex
	release map[core.WorldLine]chan struct{}
}

func newGatedRestore() *gatedRestore {
	return &gatedRestore{entered: make(chan core.WorldLine, 8), release: make(map[core.WorldLine]chan struct{})}
}

func (g *gatedRestore) gate(wl core.WorldLine) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch, ok := g.release[wl]
	if !ok {
		ch = make(chan struct{}, 1)
		g.release[wl] = ch
	}
	return ch
}

func (g *gatedRestore) restore(wl core.WorldLine) error {
	g.entered <- wl
	<-g.gate(wl)
	return nil
}

// TestSecondFailureDuringRollback: a crash while a recovery round's rollbacks
// are still in flight starts a nested round on the next world-line. The
// overtaken round ends without resuming DPR progress — the newer round's
// rollbacks are still running, and unfreezing would commit new operations
// they are about to erase. Only the newest round's completion resumes
// progress.
func TestSecondFailureDuringRollback(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	g := newGatedRestore()
	startMember(t, meta, 1, g.restore)
	meta.ReportVersion(1, 5, nil)
	mgr := NewManager(meta)

	resA := startRound(mgr)
	wlA := <-g.entered // the member is restoring into round A's world-line
	resB := startRound(mgr)
	var a roundResult
	select {
	case a = <-resA: // round B took over the wait
	case <-time.After(2 * time.Second):
		t.Fatal("the overtaken round did not end")
	}
	if a.err != nil || a.wl != wlA {
		t.Fatalf("round A: wl %d err %v, want wl %d", a.wl, a.err, wlA)
	}
	if !meta.Frozen() {
		t.Fatal("completing an overtaken recovery round must not resume DPR progress")
	}

	g.gate(wlA) <- struct{}{}
	wlB := <-g.entered // the member moves on into round B's world-line
	if wlB <= wlA {
		t.Fatalf("nested failure must advance the world-line: %d then %d", wlA, wlB)
	}
	if !meta.Frozen() {
		t.Fatal("DPR progress resumed while the member still rolls back into the newest world-line")
	}
	g.gate(wlB) <- struct{}{}
	b := <-resB
	if b.err != nil || b.wl != wlB {
		t.Fatalf("round B: wl %d err %v, want wl %d", b.wl, b.err, wlB)
	}
	if meta.Frozen() {
		t.Fatal("completing the newest round must resume DPR progress")
	}
	if meta.WorldLine() != b.wl {
		t.Fatalf("world-line = %d, want %d", meta.WorldLine(), b.wl)
	}
}

// TestOnFailureDetachedTargetSkipped: a detached member (stopped, so it rolls
// nothing back) does not hold a round; attaching it again makes rounds wait
// for it once more.
func TestOnFailureDetachedTargetSkipped(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{})
	meta.RegisterWorker(1, "stopped")
	mgr := NewManager(meta)
	mgr.ackBound = 50 * time.Millisecond
	stopped := &member{id: 1}
	mgr.Detach(1)
	timeouts := ackTimeoutsC.Value()
	if _, _, err := mgr.OnFailure(); err != nil {
		t.Fatal(err)
	}
	if got := ackTimeoutsC.Value(); got != timeouts {
		t.Fatalf("a detached member held the round to its bound: ack timeouts %d -> %d", timeouts, got)
	}
	mgr.Attach(stopped)
	if _, _, err := mgr.OnFailure(); err != nil {
		t.Fatal(err)
	}
	if got := ackTimeoutsC.Value(); got != timeouts+1 {
		t.Fatalf("the re-attached member was not waited for: ack timeouts %d -> %d", timeouts, got)
	}
}

// roundResult is what an OnFailure running on its own goroutine returns.
type roundResult struct {
	wl  core.WorldLine
	err error
}

func startRound(mgr *Manager, down ...core.WorkerID) chan roundResult {
	done := make(chan roundResult, 1)
	go func() {
		wl, _, err := mgr.OnFailure(down...)
		done <- roundResult{wl, err}
	}()
	return done
}

// TestRoundWaitsForUnattachedMember: a registered, live member the manager
// was never told about — a dpr-server seen from the finder — is waited for
// like any other. The round keeps DPR progress frozen until that member's
// acknowledgement arrives, and resumes as soon as it does.
func TestRoundWaitsForUnattachedMember(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	meta.RegisterWorker(2, "b")
	startMember(t, meta, 1, nil)
	mgr := NewManager(meta)
	done := startRound(mgr)

	for meta.WorldLine() != 1 {
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-done:
		t.Fatalf("round on world-line %d resumed before member 2 acknowledged (err %v)", r.wl, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	if !meta.Frozen() {
		t.Fatal("DPR progress resumed while member 2 has not rolled back")
	}
	meta.AckWorldLine(2, 1) // member 2's self-heal
	select {
	case r := <-done:
		if r.err != nil || r.wl != 1 {
			t.Fatalf("round: wl %d err %v", r.wl, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("round did not resume after the last acknowledgement")
	}
	if meta.Frozen() {
		t.Fatal("DPR progress must resume once every member acknowledged")
	}
}

// TestRoundSkipsDownAndDetached: a member the caller names down and one it
// detached will not acknowledge (they are dead, or being restarted); neither
// holds the round.
func TestRoundSkipsDownAndDetached(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	live := startMember(t, meta, 1, nil)
	meta.RegisterWorker(2, "detached")
	meta.RegisterWorker(3, "down")
	mgr := NewManager(meta)
	mgr.Detach(2)
	timeouts := ackTimeoutsC.Value()
	select {
	case r := <-startRound(mgr, 3):
		if r.err != nil {
			t.Fatal(r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a down or detached member held the round")
	}
	if meta.Frozen() || ackTimeoutsC.Value() != timeouts {
		t.Fatalf("frozen %v, ack timeouts %d -> %d", meta.Frozen(), timeouts, ackTimeoutsC.Value())
	}
	if live.joined.Load() != 1 {
		t.Fatalf("live member joined world-line %d, want 1", live.joined.Load())
	}
}

// TestRoundResumesAtAckBound: a member that never acknowledges ends the round
// at the bound — DPR progress resumes (it rolls itself back whenever it
// returns) and the timeout is counted, never a silent stall.
func TestRoundResumesAtAckBound(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	startMember(t, meta, 1, nil)
	meta.RegisterWorker(2, "mute")
	mgr := NewManager(meta)
	mgr.ackBound = 50 * time.Millisecond
	timeouts := ackTimeoutsC.Value()
	start := time.Now()
	if _, _, err := mgr.OnFailure(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < mgr.ackBound {
		t.Fatalf("round resumed after %v, before the %v bound", d, mgr.ackBound)
	}
	if got := ackTimeoutsC.Value(); got != timeouts+1 {
		t.Fatalf("ack timeouts %d -> %d, want one more", timeouts, got)
	}
	if meta.Frozen() {
		t.Fatal("DPR progress must resume at the bound")
	}
}
