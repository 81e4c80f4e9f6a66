//go:debug asynctimerchan=0

package libdpr_test

import (
	"fmt"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
)

// The go:debug line above runs this package's tests under Go 1.23's timer
// semantics — a timer's channel is synchronous, and Stop or Reset leave no
// stale value in it — which the module's go line (1.22) does not select. The
// root module cannot move its go line first: the benchmark module requires
// it and builds at go 1.22, so it would have to move with it. These waits are
// written to hold under both.

// TestTimersUnderSynchronousChannels: the metadata long-poll leg, whose
// recycled timer is stopped and drained when the state changes first
// (`if !t.Stop() { <-t.C }`), never blocks and never hands the next leg a
// stale expiry, with the change landing before, at and after the timeout;
// and WaitCommit's deadline and backstop timers end a wait on time, whether
// it times out or a cut ends it.
func TestTimersUnderSynchronousChannels(t *testing.T) {
	if cap(time.NewTimer(time.Hour).C) != 0 {
		t.Fatal("the go:debug line did not select synchronous timer channels")
	}
	meta := metadata.NewStore(metadata.Config{})
	const leg = 200 * time.Microsecond
	for i := 0; i < 300; i++ {
		since, _ := meta.WaitStateChange(^uint64(0), 0) // the current generation, at once
		done := make(chan uint64, 1)
		go func() {
			gen, _ := meta.WaitStateChange(since, leg)
			done <- gen
		}()
		time.Sleep(time.Duration(i%3) * leg / 2) // before, at about, and after the leg's end
		if err := meta.RegisterWorker(core.WorkerID(i+1), fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("leg %d blocked: its timer's stop-and-drain waited for a value that never came", i)
		}
		// The recycled timer must not end the next leg at once with a stale
		// expiry: a leg with nothing changing lasts its timeout.
		now, _ := meta.WaitStateChange(^uint64(0), 0)
		start := time.Now()
		if gen, _ := meta.WaitStateChange(now, leg); gen != now {
			t.Fatalf("leg %d: generation %d with nothing changed, want %d", i, gen, now)
		}
		if took := time.Since(start); took < leg {
			t.Fatalf("leg %d ended after %v, before its %v timeout: a stale expiry was left in the recycled timer", i, took, leg)
		}
	}

	meta2 := &cutOnlyMeta{}
	s, err := libdpr.NewSession(meta2, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Tracker()
	start := tr.BeginBatch(4)
	tr.CompleteBatch(0, start, 1, []core.Version{1, 1, 1, 1})
	began := time.Now()
	if err := s.WaitCommit(start+3, 20*time.Millisecond, nil); err == nil {
		t.Fatal("WaitCommit returned nil with no cut covering the batch")
	}
	if took := time.Since(began); took < 20*time.Millisecond || took > 2*time.Second {
		t.Fatalf("WaitCommit timed out after %v, want its 20ms deadline", took)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		meta2.setCut(core.Cut{1: 1})
	}()
	if err := s.WaitCommit(start+3, 5*time.Second, nil); err != nil {
		t.Fatalf("WaitCommit with the cut published by the finder: %v", err)
	}
}
