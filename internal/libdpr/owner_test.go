package libdpr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/storage"
)

// colocated is a worker on a kv store with one co-located caller: a session,
// the kv session its batches execute on, and a lane on that session's slot.
type colocated struct {
	meta  *metadata.Store
	store *kv.Store
	w     *Worker
	s     *Session
	kvs   *kv.Session
	lane  *ExecLane
}

func newColocated(t *testing.T, interval time.Duration) *colocated {
	t.Helper()
	c := &colocated{meta: metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})}
	c.store = kv.NewStore(storage.NewNull(), kv.Config{})
	t.Cleanup(func() { c.store.Close() })
	var err error
	if c.w, err = NewWorker(WorkerConfig{ID: 1, CheckpointInterval: interval}, c.store, c.meta); err != nil {
		t.Fatal(err)
	}
	c.w.SetAdmitTimeout(time.Second)
	t.Cleanup(c.w.Stop)
	if c.s, err = NewSession(c.meta, true); err != nil {
		t.Fatal(err)
	}
	c.kvs = c.store.NewSession()
	c.lane = c.w.NewLaneOn(c.store.Epochs(), c.kvs.Slot())
	t.Cleanup(func() {
		c.lane.Close()
		c.kvs.Close()
	})
	return c
}

// upsert runs one co-located b = 1 batch on the session's own world-line, as
// dfaster's client does, and digests the reply. A batch the worker rejects is
// settled as the client settles it: abandoned, and the worker's world-line
// digested.
func (c *colocated) upsert(key string) error {
	h, err := c.s.NextBatch(1)
	if err != nil {
		return err
	}
	if _, err := c.w.AdmitBatchGuarded(h, c.lane); err != nil {
		c.s.Abandon(h)
		if errors.Is(err, ErrBatchRejected) {
			return c.s.NotifyWorldLine(c.w.WorldLine())
		}
		return err
	}
	v, err := c.kvs.Upsert([]byte(key), []byte("v"))
	if err != nil {
		c.w.ReleaseBatch(h, c.lane, false)
		return err
	}
	reply := c.w.Reply([]core.Version{v})
	c.w.ReleaseBatch(h, c.lane, true)
	return c.s.CompleteBatch(c.w.ID(), h, reply)
}

// TestOwnerSessionBesideForeignWork: a co-located session issues while other
// goroutines age its gate out of the worker and run recovery rounds, under
// -race the proof that the session's and the gate's owners are the only
// writers of their state (pushed cuts reach a session through its client:
// dfaster's TestOwnerClientBesideForeignPushes). What the owner reads agrees with the
// locked tracker's contract: the committed prefix never moves back on a
// world-line, exceptions lie at or below it in order, a SurvivalError keeps
// every operation that was reported committed, no in-order batch is fenced as
// stale however often its gate moved, and everything commits at the end.
func TestOwnerSessionBesideForeignWork(t *testing.T) {
	c := newColocated(t, time.Millisecond)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	foreign := func(every time.Duration, fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(every):
					fn()
				}
			}
		}()
	}
	// The sweep, at a cutoff every gate qualifies for.
	foreign(50*time.Microsecond, func() { c.w.sweepGates(c.w.gateEra.Add(1)) })
	// Recovery rounds; the worker rolls back from its own refresh.
	var rounds atomic.Int32
	foreign(20*time.Millisecond, func() {
		if rounds.Load() < 3 {
			rounds.Add(1)
			wl, _ := c.meta.BeginRecovery()
			c.meta.CompleteRecoveryFor(wl)
		}
	})

	var prefix uint64
	wl := c.s.Tracker().WorldLine()
	survived := 0
	start := time.Now()
	for i := 0; i < 20000 || rounds.Load() < 3 && time.Since(start) < 5*time.Second; i++ {
		err := c.upsert(fmt.Sprintf("k%d", i%64))
		var surv *core.SurvivalError
		switch {
		case errors.As(err, &surv):
			if surv.SurvivingPrefix < prefix {
				t.Fatalf("op %d: the rollback kept %d operations, %d were reported committed", i, surv.SurvivingPrefix, prefix)
			}
			survived++
			c.s.Acknowledge()
			prefix = min(prefix, surv.SurvivingPrefix)
			wl = c.s.Tracker().WorldLine()
			continue
		case errors.Is(err, ErrStaleBatch):
			t.Fatalf("op %d: an in-order batch was fenced as stale: %v", i, err)
		case err != nil && !errors.Is(err, ErrBatchRejected):
			t.Fatalf("op %d: %v", i, err)
		}
		p, exc := c.s.Committed()
		if now := c.s.Tracker().WorldLine(); now != wl {
			wl, prefix = now, p // a lossless rollback: adopted without an error
		}
		if p < prefix {
			t.Fatalf("op %d: the committed prefix moved back from %d to %d on world-line %d", i, prefix, p, wl)
		}
		prefix = p
		for j, e := range exc {
			if e > p || j > 0 && exc[j-1] >= e {
				t.Fatalf("op %d: exceptions %v not ascending at or below the prefix %d", i, exc, p)
			}
		}
	}
	close(stop)
	wg.Wait()
	if rounds.Load() == 0 {
		t.Fatal("no recovery round ran beside the session")
	}
	t.Logf("%d recovery rounds, %d survival errors", rounds.Load(), survived)
	// The last round may have ended in the metadata store while the worker,
	// which rolls back in its own refresh, has not adopted it yet: an upsert
	// executed before that would be rolled back under the wait below. So the
	// worker adopts the store's world-line first, and the session the
	// worker's.
	_, _, metaWL, _ := c.meta.State()
	deadline := time.Now().Add(5 * time.Second)
	for c.w.WorldLine() < metaWL {
		if time.Now().After(deadline) {
			t.Fatalf("the worker never adopted world-line %d (at %d)", metaWL, c.w.WorldLine())
		}
		time.Sleep(time.Millisecond)
	}
	var surv *core.SurvivalError
	if err := c.s.NotifyWorldLine(c.w.WorldLine()); errors.As(err, &surv) {
		c.s.Acknowledge()
	} else if err != nil {
		t.Fatal(err)
	}
	if err := c.upsert("last"); err != nil {
		t.Fatal(err)
	}
	last := c.s.Tracker().NextSeq() - 1
	if err := c.s.WaitCommit(last, 5*time.Second, nil); err != nil {
		t.Fatalf("WaitCommit(%d) once the foreign work stopped: %v", last, err)
	}
}

// TestGateMovesBetweenLanes: a session's batch that arrives on another lane
// while the gate's holder executes one of its batches waits for that batch,
// then takes the gate with the fence the holder left, and a late replay of an
// executed range is still refused wherever it arrives.
func TestGateMovesBetweenLanes(t *testing.T) {
	w := newSweepWorker(t)
	a, b := w.NewLane(), w.NewLane()
	defer a.Close()
	defer b.Close()
	const session = 9
	wl := w.WorldLine()
	first := BatchHeader{SessionID: session, WorldLine: wl, SeqStart: 1, NumOps: 4}
	if _, err := w.AdmitBatchGuarded(first, a); err != nil {
		t.Fatal(err)
	}
	second := BatchHeader{SessionID: session, WorldLine: wl, SeqStart: 5, NumOps: 1}
	admitted := make(chan error, 1)
	go func() {
		_, err := w.AdmitBatchGuarded(second, b)
		admitted <- err
	}()
	select {
	case err := <-admitted:
		t.Fatalf("the session's batch was admitted on a second lane while the first executed one (err %v)", err)
	case <-time.After(30 * time.Millisecond):
	}
	w.ReleaseBatch(first, a, true)
	if err := <-admitted; err != nil {
		t.Fatalf("the waiting batch, once the holder released: %v", err)
	}
	w.ReleaseBatch(second, b, true)
	if g := b.gate; g == nil || g.holder.Load() != b || g.next != 6 {
		t.Fatalf("gate after the move: %+v, want held by the second lane with the fence at 6", g)
	}
	replay := BatchHeader{SessionID: session, WorldLine: wl, SeqStart: 1, NumOps: 4}
	if _, err := w.AdmitBatchGuarded(replay, a); !errors.Is(err, ErrStaleBatch) {
		t.Fatalf("a replay of seqs 1..4 back on the first lane: err = %v, want ErrStaleBatch", err)
	}
}

// TestDrainWaitsOneBatch: a co-located lane holds its kv session's slot for
// one batch, and the session's operations inside enter nothing more, so a
// drain of the store's epoch table beside a saturated session waits for the
// batch in flight and no more: the session's next batch enters under the
// drain's new era, and the drain ends while that batch still runs.
func TestDrainWaitsOneBatch(t *testing.T) {
	c := newColocated(t, time.Hour)
	batch := func(seq uint64) BatchHeader {
		h := BatchHeader{SessionID: c.s.ID(), WorldLine: c.w.WorldLine(), SeqStart: seq, NumOps: 1}
		if _, err := c.w.AdmitBatchGuarded(h, c.lane); err != nil {
			t.Fatal(err)
		}
		if _, err := c.kvs.Upsert([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if !c.kvs.Slot().Held() {
			t.Fatal("the kv operation exited the slot the lane holds for the batch")
		}
		return h
	}
	first := batch(1)
	drained := make(chan struct{})
	go func() {
		c.store.Epochs().Drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("the drain ended while a batch that entered before it was still executing")
	case <-time.After(30 * time.Millisecond):
	}
	c.w.ReleaseBatch(first, c.lane, true)
	second := batch(2) // the session keeps going
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("the drain still waits on a session that moved on to its next batch")
	}
	c.w.ReleaseBatch(second, c.lane, true)
	if c.kvs.Slot().Held() {
		t.Fatal("the slot is still entered after the batch's release")
	}
}

// TestParkedBatchHoldsOffRollbackAndTake: a co-located batch that parks
// before a device wait lets the store's drains through, while the rollback
// fence's drain and a take of its session's gate by another lane still wait
// for its release. Under a raised fence the batch stays on the store's slot,
// whose table the rollback drains too.
func TestParkedBatchHoldsOffRollbackAndTake(t *testing.T) {
	c := newColocated(t, time.Hour)
	h := BatchHeader{SessionID: c.s.ID(), WorldLine: c.w.WorldLine(), SeqStart: 1, NumOps: 1}
	if _, err := c.w.AdmitBatchGuarded(h, c.lane); err != nil {
		t.Fatal(err)
	}
	c.lane.Park()
	if c.kvs.Slot().Held() {
		t.Fatal("the parked batch still holds the kv session's slot")
	}
	within := func(done <-chan struct{}, d time.Duration) bool {
		t.Helper()
		select {
		case <-done:
			return true
		case <-time.After(d):
			return false
		}
	}
	storeDrained := make(chan struct{})
	go func() { c.store.Epochs().Drain(); close(storeDrained) }()
	if !within(storeDrained, 5*time.Second) {
		t.Fatal("a drain of the store's table waits on a parked batch")
	}
	execDrained, taken := make(chan struct{}), make(chan struct{})
	go func() { c.w.exec.Drain(); close(execDrained) }()
	other := c.w.NewLane()
	defer other.Close()
	next := BatchHeader{SessionID: c.s.ID(), WorldLine: h.WorldLine, SeqStart: 2, NumOps: 1}
	go func() {
		if _, err := c.w.AdmitBatchGuarded(next, other); err != nil {
			t.Error(err)
		}
		close(taken)
	}()
	if within(execDrained, 30*time.Millisecond) {
		t.Fatal("the rollback fence's drain ended while a parked batch executed")
	}
	if within(taken, 0) {
		t.Fatal("another lane took the gate while a parked batch executed")
	}
	c.w.ReleaseBatch(h, c.lane, true)
	if !within(execDrained, 5*time.Second) || !within(taken, 5*time.Second) {
		t.Fatal("the drain or the take still waits after the parked batch's release")
	}
	c.w.ReleaseBatch(next, other, true)

	// Under a raised fence the batch stays where the fence's drains find it.
	third := BatchHeader{SessionID: c.s.ID(), WorldLine: h.WorldLine, SeqStart: 3, NumOps: 1}
	if _, err := c.w.AdmitBatchGuarded(third, c.lane); err != nil {
		t.Fatal(err)
	}
	c.w.rbFence.Store(uint64(h.WorldLine) + 1)
	c.lane.Park()
	c.w.rbFence.Store(0)
	if !c.kvs.Slot().Held() || c.lane.parked {
		t.Fatal("a batch parked under the rollback fence left the kv session's slot")
	}
	c.w.ReleaseBatch(third, c.lane, true)
	if c.kvs.Slot().Held() {
		t.Fatal("the slot is still entered after the batch's release")
	}
}
