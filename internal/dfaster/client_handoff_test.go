package dfaster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/wire"
)

// This file drives the client's one hand-off — read loops settle batches and
// announce cuts and world-lines under c.mu, the owner takes them in at its
// next call — from the goroutines that use it: a test goroutine stands in for
// a connection's read loop (settle, announce) beside the owner's calls.

// cutOnlyMeta is a metadata service that answers State with a settable cut
// on world-line 0; a session's commit tracking calls nothing else.
type cutOnlyMeta struct {
	metadata.Service
	mu     sync.Mutex
	cut    core.Cut
	states int // State calls answered
}

func (m *cutOnlyMeta) State() (core.Cut, core.Version, core.WorldLine, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.states++
	return m.cut.Clone(), 0, 0, nil
}

func (m *cutOnlyMeta) stateCalls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.states
}

func (m *cutOnlyMeta) setCut(c core.Cut) {
	m.mu.Lock()
	m.cut = c
	m.mu.Unlock()
}

// backstopPeriod is the longest interval at which libdpr.Session.WaitCommit
// asks the finder behind its transport (libdpr's manualHeartbeat).
const backstopPeriod = 50 * time.Millisecond

// bareClient is a client with no worker to talk to: its batches are issued
// on the session and settled by the test, as a read loop would.
func bareClient(t *testing.T, meta metadata.Service, relaxed bool) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{Partitions: testPartitions, Relaxed: relaxed}, meta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// inFlight is a batch with header h as the owner left it on a connection: its
// operations hold window slots.
func inFlight(c *Client, h libdpr.BatchHeader) *batch {
	c.mu.Lock()
	c.outstanding += int(h.NumOps)
	c.mu.Unlock()
	return &batch{header: h, ops: make([]wire.Op, h.NumOps), cbs: make([]OpCallback, h.NumOps), state: stInFlight}
}

// TestWaitCommitPassesAbandoned: a batch the transport gave up on is a hole
// that will never close. Under relaxed DPR WaitCommit waits for everything at
// or below seq to be committed or abandoned — a parked wait is woken by the
// abandon itself — and Committed keeps listing the hole; under strict DPR the
// wait fails at once, naming it, instead of timing out.
func TestWaitCommitPassesAbandoned(t *testing.T) {
	issue := func(relaxed bool) (*Client, *batch) {
		meta := &cutOnlyMeta{}
		c := bareClient(t, meta, relaxed)
		var lost *batch
		for b := 0; b < 3; b++ {
			h, err := c.nextBatch(4)
			if err != nil {
				t.Fatal(err)
			}
			if b == 1 {
				lost = inFlight(c, h) // seqs 5..8: no reply ever comes
				continue
			}
			if err := c.session.CompleteBatch(1, h, libdpr.BatchReply{Versions: []core.Version{1, 1, 1, 1}}); err != nil {
				t.Fatal(err)
			}
		}
		meta.setCut(core.Cut{1: 1})
		return c, lost
	}

	c, lost := issue(true)
	if err := c.WaitCommit(12, 50*time.Millisecond); err == nil {
		t.Fatal("WaitCommit(12) returned nil while seqs 5..8 are still in flight")
	}
	done := make(chan error, 1)
	go func() { done <- c.WaitCommit(12, 10*time.Second) }()
	time.Sleep(20 * time.Millisecond) // let it park (harmless if it has not)
	c.settle(lost, outcome{cause: causeStranded})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitCommit(12) after the abandon: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitCommit(12) still parked after the hole was abandoned")
	}
	if p, exc := c.Committed(); p != 12 || len(exc) != 4 || exc[0] != 5 || exc[3] != 8 {
		t.Fatalf("prefix %d exceptions %v, want 12 with 5..8 still listed: abandoned is not committed", p, exc)
	}
	if n := c.Session().Tracker().InFlight(); n != 0 {
		t.Fatalf("InFlight %d after the abandon, want 0", n)
	}

	c, lost = issue(false)
	c.settle(lost, outcome{cause: causeStranded})
	var hole *core.AbandonedError
	if err := c.WaitCommit(12, 5*time.Second); !errors.As(err, &hole) || hole.Seq != 5 {
		t.Fatalf("strict WaitCommit(12) = %v, want an AbandonedError at seq 5", err)
	}
	if err := c.WaitCommit(4, 5*time.Second); err != nil {
		t.Fatalf("strict WaitCommit(4), below the hole: %v", err)
	}
}

// TestWaitCommitWakesOnFold: WaitCommit is woken by the fold of a cut into the
// session, not by polling the finder. A cut that a read loop hands over (a
// pushed frame) ends a long wait within a few milliseconds and after a handful
// of finder calls — the backstop's, at an interval doubling from 1 ms up to
// its period — where a 1 ms poll made one per millisecond. With no push at all
// the backstop still finds the cut at the finder, within one of its periods.
func TestWaitCommitWakesOnFold(t *testing.T) {
	const slack = 25 * time.Millisecond
	issue := func(t *testing.T) (*cutOnlyMeta, *Client, uint64) {
		meta := &cutOnlyMeta{}
		c := bareClient(t, meta, true)
		tr := c.Session().Tracker()
		start := tr.BeginBatch(4)
		tr.CompleteBatch(0, start, 1, []core.Version{1, 1, 1, 1})
		return meta, c, start + 3
	}
	wait := func(c *Client, seq uint64) <-chan error {
		done := make(chan error, 1)
		go func() { done <- c.WaitCommit(seq, 5*time.Second) }()
		return done
	}

	t.Run("pushed cut", func(t *testing.T) {
		const parked = 200 * time.Millisecond
		meta, c, seq := issue(t)
		before := meta.stateCalls()
		done := wait(c, seq)
		select {
		case err := <-done:
			t.Fatalf("WaitCommit returned %v before any cut covered seq %d", err, seq)
		case <-time.After(parked):
		}
		folded := time.Now()
		c.announce(0, core.Cut{1: 1})
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if woke := time.Since(folded); woke > slack {
			t.Errorf("WaitCommit returned %v after the fold, want a wake-up, not the next poll", woke)
		}
		calls := meta.stateCalls() - before
		// 0, 1, 3, 7, 15, 31, 63 ms, then one per backstop period.
		if most := 7 + int(parked/backstopPeriod); calls > most {
			t.Errorf("%d finder State calls during a %v wait, want at most %d (a doubling interval up to one per %v)",
				calls, parked, most, backstopPeriod)
		}
	})

	t.Run("no push", func(t *testing.T) {
		meta, c, seq := issue(t)
		done := wait(c, seq)
		time.Sleep(20 * time.Millisecond)
		meta.setCut(core.Cut{1: 1})
		published := time.Now()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if took := time.Since(published); took > backstopPeriod+slack {
			t.Errorf("WaitCommit returned %v after the finder published the cut, want within one %v backstop",
				took, backstopPeriod)
		}
	})
}

// TestNextBatchNeverCrossesUnacknowledgedFailure: a failure a completion
// thread announces while the issuing thread is inside nextBatch must not hand
// that batch a header of the new world-line. The issuing thread digests the
// announcement at its next call and gets the SurvivalError; until the
// application acknowledges it, every nextBatch fails, and every successful one
// before belongs to the world-line the application knows about: sequence
// numbers of the new one are reissued ones, and using them early makes two
// live operations share a number.
func TestNextBatchNeverCrossesUnacknowledgedFailure(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{})
	if err := meta.RegisterWorker(1, "inproc-1"); err != nil {
		t.Fatal(err)
	}
	c := bareClient(t, meta, true)
	for round := 0; round < 300; round++ {
		before := c.Session().Tracker().WorldLine()
		// One batch that never completes: the failure always loses something.
		if _, err := c.nextBatch(1); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		issued := make(chan error, 1)
		go func() { // the session's owner from here until it reports
			for {
				h, err := c.nextBatch(1)
				if err != nil {
					var surv *core.SurvivalError
					if !errors.As(err, &surv) {
						issued <- fmt.Errorf("round %d: nextBatch = %v, want a SurvivalError", round, err)
					} else if _, again := c.nextBatch(1); again == nil {
						issued <- fmt.Errorf("round %d: nextBatch succeeded with the failure unacknowledged", round)
					} else {
						issued <- nil
					}
					return
				}
				if h.WorldLine != before {
					issued <- fmt.Errorf("round %d: batch header on world-line %d before the failure of %d was acknowledged",
						round, h.WorldLine, before)
					return
				}
			}
		}()
		wl, _ := meta.BeginRecovery()
		meta.CompleteRecoveryFor(wl)
		c.announce(wl, nil) // as a connection's read loop does
		if err := <-issued; err != nil {
			t.Fatal(err)
		}
		c.Acknowledge()
	}
}

// TestHandOffMergesLaggingCuts: cuts that reach the hand-off on one
// world-line between two of the owner's calls merge by per-worker maximum.
// Replies from different workers carry cut views that lag by different
// amounts, so one that posts last may be older than one before it; the
// owner folds what both said.
func TestHandOffMergesLaggingCuts(t *testing.T) {
	c := bareClient(t, &cutOnlyMeta{}, true)
	tr := c.Session().Tracker()
	first := tr.BeginBatch(1)
	tr.CompleteBatch(0, first, 1, []core.Version{3})
	second := tr.BeginBatch(1)
	tr.CompleteBatch(0, second, 2, []core.Version{5})
	c.announce(0, core.Cut{1: 3, 2: 4}) // a fresh view of worker 1
	c.announce(0, core.Cut{1: 2, 2: 5}) // a lagging one, fresh on worker 2
	if p, exc := c.Committed(); p != second || len(exc) != 0 {
		t.Fatalf("committed prefix %d, exceptions %v after the two cuts, want %d and none: what the first said of worker 1 was lost", p, exc, second)
	}
}

// TestOwnerClientBesideForeignPushes: a co-located client issues while another
// goroutine hands it pushed cuts, as a connection's read loop does, and
// recovery rounds run; under -race the proof that the owner is the only
// writer of the session's state. What the owner reads agrees with the
// tracker's contract: the committed prefix never moves back on a world-line,
// exceptions lie at or below it in order, a SurvivalError keeps every
// operation that was reported committed, no in-order batch is fenced as
// stale, and everything commits at the end.
func TestOwnerClientBesideForeignPushes(t *testing.T) {
	tc := newTestCluster(t, 1, time.Millisecond)
	w := tc.workers[0]
	c, err := NewClient(ClientConfig{Partitions: testPartitions, Relaxed: true, LocalWorker: w}, tc.meta)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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
	foreign(100*time.Microsecond, func() { c.announce(w.DPR().WorldLine(), w.DPR().CurrentCut()) })
	var rounds atomic.Int32
	foreign(20*time.Millisecond, func() {
		if rounds.Load() < 3 {
			rounds.Add(1)
			wl, _ := tc.meta.BeginRecovery()
			tc.meta.CompleteRecoveryFor(wl)
		}
	})

	var prefix uint64
	wl := c.Session().Tracker().WorldLine()
	survived := 0
	start := time.Now()
	for i := 0; i < 20000 || rounds.Load() < 3 && time.Since(start) < 5*time.Second; i++ {
		err := c.Upsert([]byte(fmt.Sprintf("k%d", i%64)), []byte("v"), nil)
		var surv *core.SurvivalError
		var refusal *wire.ErrorReply
		switch {
		case errors.As(err, &surv):
			if surv.SurvivingPrefix < prefix {
				t.Fatalf("op %d: the rollback kept %d operations, %d were reported committed", i, surv.SurvivingPrefix, prefix)
			}
			survived++
			c.Acknowledge()
			prefix = min(prefix, surv.SurvivingPrefix)
			wl = c.Session().Tracker().WorldLine()
			continue
		case errors.As(err, &refusal) && refusal.Code == wire.ErrCodeStale:
			t.Fatalf("op %d: an in-order batch was fenced as stale: %v", i, err)
		case err != nil && !(refusal != nil && refusal.Code == wire.ErrCodeRejected):
			t.Fatalf("op %d: %v", i, err)
		}
		p, exc := c.Committed()
		if now := c.Session().Tracker().WorldLine(); now != wl {
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
		t.Fatal("no recovery round ran beside the client")
	}
	t.Logf("%d recovery rounds, %d survival errors", rounds.Load(), survived)
	// The worker adopts the last round before the final upsert, which would
	// otherwise be rolled back under the wait below; the client then hears of
	// it as the owner does, from the worker's world-line.
	_, _, metaWL, _ := tc.meta.State()
	waitFor(t, "the worker to adopt the last round", func() bool { return w.DPR().WorldLine() >= metaWL })
	c.announce(w.DPR().WorldLine(), nil)
	var surv *core.SurvivalError
	if err := c.Err(); errors.As(err, &surv) {
		c.Acknowledge()
	} else if err != nil {
		t.Fatal(err)
	}
	if err := c.Upsert([]byte("last"), []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommitAll(5 * time.Second); err != nil {
		t.Fatalf("WaitCommitAll once the foreign work stopped: %v", err)
	}
}

// TestCommitWaitRightAfterReadCallback: the owner waits for commit as soon as
// a remote read's callback has handed it the result, with no client call in
// between — queue's durable consumer. The callback fires before the owner
// takes the batch in, so the wait is woken by the hand-off, and returns once
// the read is committed.
func TestCommitWaitRightAfterReadCallback(t *testing.T) {
	tc := newTestCluster(t, 1, 5*time.Millisecond)
	c := newTestClient(t, tc, 1, 8)
	if err := c.Upsert([]byte("durable"), []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got := make(chan byte, 1)
		if err := c.Read([]byte("durable"), func(r wire.OpResult) { got <- r.Status }); err != nil {
			t.Fatal(err)
		}
		if st := <-got; st != wire.StatusOK {
			t.Fatalf("read %d: status %d", i, st)
		}
		seq := c.LastSeq()
		if err := c.WaitCommit(seq, 5*time.Second); err != nil {
			t.Fatalf("read %d: WaitCommit(%d) right after its callback: %v", i, seq, err)
		}
		if p, _ := c.Committed(); p < seq {
			t.Fatalf("read %d: WaitCommit(%d) returned with the prefix at %d", i, seq, p)
		}
	}
}

// flakyCutMeta fails the next RecoveredCut once armed, as a metadata service
// that has announced a world-line before it can say what it recovered.
type flakyCutMeta struct {
	*metadata.Store
	armed atomic.Bool
}

func (m *flakyCutMeta) RecoveredCut(wl core.WorldLine) (core.Cut, error) {
	if m.armed.CompareAndSwap(true, false) {
		return nil, errors.New("recovered cut not yet published")
	}
	return m.Store.RecoveredCut(wl)
}

// TestTransientWorldLineErrorIsNotSticky: a world-line announced while
// metadata cannot yet say what it recovered fails the next operation with a
// transient error, which the session retries by itself; once metadata
// answers, the session adopts the world-line (nothing was erased here) and
// operations go on, with no Acknowledge — which only a SurvivalError asks for.
func TestTransientWorldLineErrorIsNotSticky(t *testing.T) {
	tc := newTestCluster(t, 1, 5*time.Millisecond)
	w := tc.workers[0]
	meta := &flakyCutMeta{Store: tc.meta}
	c, err := NewClient(ClientConfig{Partitions: testPartitions, Relaxed: true, LocalWorker: w}, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wl, _ := tc.meta.BeginRecovery()
	tc.meta.CompleteRecoveryFor(wl)
	waitFor(t, "the worker to adopt the round", func() bool { return w.DPR().WorldLine() >= wl })
	meta.armed.Store(true)
	c.announce(wl, nil) // as a connection's read loop does
	if err := c.Upsert([]byte("k"), []byte("v"), nil); err == nil {
		t.Fatal("the first operation after the announcement succeeded with the recovered cut unavailable")
	}
	for i := 0; i < 2; i++ {
		if err := c.Upsert([]byte("k"), []byte("v"), nil); err != nil {
			t.Fatalf("operation %d once metadata answers: %v", i+2, err)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err once metadata answers: %v", err)
	}
	if got := c.Session().Tracker().WorldLine(); got != wl {
		t.Fatalf("session on world-line %d, want %d", got, wl)
	}
}
