package cluster

import (
	"sync"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/metadata"
)

// fakeTarget records rollback commands and acknowledges each one, as a
// worker does at the end of its rollback.
type fakeTarget struct {
	id   core.WorkerID
	meta *metadata.Store

	mu    sync.Mutex
	calls []core.WorldLine
	cuts  []core.Cut
	fail  error
}

func (f *fakeTarget) ID() core.WorkerID { return f.id }
func (f *fakeTarget) Rollback(wl core.WorldLine, cut core.Cut) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, wl)
	f.cuts = append(f.cuts, cut.Clone())
	if f.fail == nil {
		f.meta.AckWorldLine(f.id, wl)
	}
	return f.fail
}
func (f *fakeTarget) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func TestOnFailureRollsBackAll(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	meta.RegisterWorker(1, "a")
	meta.RegisterWorker(2, "b")
	meta.ReportVersion(1, 3, nil)
	meta.ReportVersion(2, 3, nil)
	mgr := NewManager(meta)
	a := &fakeTarget{id: 1, meta: meta}
	b := &fakeTarget{id: 2, meta: meta}
	mgr.Attach(a)
	mgr.Attach(b)
	wl, cut, err := mgr.OnFailure()
	if err != nil {
		t.Fatal(err)
	}
	if wl != 1 || cut.Get(1) != 3 {
		t.Fatalf("wl=%d cut=%v", wl, cut)
	}
	if a.callCount() != 1 || b.callCount() != 1 {
		t.Fatal("all targets must receive a rollback")
	}
	if meta.Frozen() {
		t.Fatal("DPR progress must resume after recovery")
	}
	if mgr.Recoveries() != 1 {
		t.Fatalf("recoveries = %d", mgr.Recoveries())
	}
}

// blockingTarget parks each Rollback call until its world-line is released,
// so tests can hold a recovery round open while a second failure arrives and
// then complete the rounds in a chosen order.
type blockingTarget struct {
	id      core.WorkerID
	meta    *metadata.Store
	entered chan core.WorldLine

	mu      sync.Mutex
	release map[core.WorldLine]chan struct{}
}

func newBlockingTarget(id core.WorkerID, meta *metadata.Store) *blockingTarget {
	return &blockingTarget{
		id:      id,
		meta:    meta,
		entered: make(chan core.WorldLine, 8),
		release: make(map[core.WorldLine]chan struct{}),
	}
}

func (b *blockingTarget) gate(wl core.WorldLine) chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch, ok := b.release[wl]
	if !ok {
		ch = make(chan struct{}, 1)
		b.release[wl] = ch
	}
	return ch
}

func (b *blockingTarget) ID() core.WorkerID { return b.id }
func (b *blockingTarget) Rollback(wl core.WorldLine, cut core.Cut) error {
	b.entered <- wl
	<-b.gate(wl)
	return b.meta.AckWorldLine(b.id, wl)
}

// TestSecondFailureDuringRollback: a crash while a recovery round's rollbacks
// are still in flight starts a nested round on the next world-line. When the
// OLDER round completes first, DPR progress must stay frozen — the newer
// round's rollbacks are still running, and unfreezing would commit new
// operations they are about to erase. Only the newest round's completion
// resumes progress.
func TestSecondFailureDuringRollback(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	meta.RegisterWorker(1, "a")
	meta.ReportVersion(1, 5, nil)
	mgr := NewManager(meta)
	bt := newBlockingTarget(1, meta)
	mgr.Attach(bt)

	type result struct {
		wl  core.WorldLine
		err error
	}
	resA := make(chan result, 1)
	go func() {
		wl, _, err := mgr.OnFailure()
		resA <- result{wl, err}
	}()
	wlA := <-bt.entered // round A's rollback is in flight

	resB := make(chan result, 1)
	go func() {
		wl, _, err := mgr.OnFailure()
		resB <- result{wl, err}
	}()
	wlB := <-bt.entered // round B's rollback is in flight on the next wl
	if wlB <= wlA {
		t.Fatalf("nested failure must advance the world-line: %d then %d", wlA, wlB)
	}

	// Finish round A first; round B is still rolling back.
	bt.gate(wlA) <- struct{}{}
	a := <-resA
	if a.err != nil {
		t.Fatalf("round A: %v", a.err)
	}
	if !meta.Frozen() {
		t.Fatal("completing an overtaken recovery round must not resume DPR progress")
	}

	bt.gate(wlB) <- struct{}{}
	b := <-resB
	if b.err != nil {
		t.Fatalf("round B: %v", b.err)
	}
	if a.wl >= b.wl {
		t.Fatalf("rounds must get distinct, increasing world-lines: %d then %d", a.wl, b.wl)
	}
	if meta.Frozen() {
		t.Fatal("completing the newest round must resume DPR progress")
	}
	if meta.WorldLine() != b.wl {
		t.Fatalf("world-line = %d, want %d", meta.WorldLine(), b.wl)
	}
}

func TestOnFailureDetachedTargetSkipped(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{})
	mgr := NewManager(meta)
	a := &fakeTarget{id: 1, meta: meta}
	mgr.Attach(a)
	mgr.Detach(1)
	if _, _, err := mgr.OnFailure(); err != nil {
		t.Fatal(err)
	}
	if a.callCount() != 0 {
		t.Fatal("detached target must not be called")
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
// does not hold — a dpr-server seen from the finder — rolls itself back from
// the finder's world-line. The round keeps DPR progress frozen until that
// member's acknowledgement arrives, and resumes as soon as it does.
func TestRoundWaitsForUnattachedMember(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	meta.RegisterWorker(1, "a")
	meta.RegisterWorker(2, "b")
	mgr := NewManager(meta)
	mgr.Attach(&fakeTarget{id: 1, meta: meta})
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
// holds the round, and neither is commanded to roll back.
func TestRoundSkipsDownAndDetached(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	for id := core.WorkerID(1); id <= 3; id++ {
		meta.RegisterWorker(id, "w")
	}
	mgr := NewManager(meta)
	live, detached := &fakeTarget{id: 1, meta: meta}, &fakeTarget{id: 2, meta: meta}
	mgr.Attach(live)
	mgr.Attach(detached)
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
	if live.callCount() != 1 || detached.callCount() != 0 {
		t.Fatalf("rollbacks: live %d, detached %d", live.callCount(), detached.callCount())
	}
}

// TestRoundResumesAtAckBound: a member that never acknowledges ends the round
// at the bound — DPR progress resumes (it rolls itself back whenever it
// returns) and the timeout is counted, never a silent stall.
func TestRoundResumesAtAckBound(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	meta.RegisterWorker(1, "a")
	meta.RegisterWorker(2, "mute")
	mgr := NewManager(meta)
	mgr.ackBound = 50 * time.Millisecond
	mgr.Attach(&fakeTarget{id: 1, meta: meta})
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
