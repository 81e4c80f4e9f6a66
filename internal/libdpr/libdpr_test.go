package libdpr_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dpr/internal/cluster"
	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/leakcheck"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/storage"
)

// harness assembles an in-process DPR cluster: n FasterKV shards wrapped by
// libDPR workers, one metadata store, one cluster manager.
type harness struct {
	meta    *metadata.Store
	mgr     *cluster.Manager
	stores  []*kv.Store
	workers []*libdpr.Worker
	kvSess  []*kv.Session
	lanes   []*libdpr.ExecLane // one execution lane per worker, as a connection holds
}

func newHarness(t *testing.T, n int, finder metadata.FinderKind, ckptEvery time.Duration) *harness {
	t.Helper()
	h := &harness{meta: metadata.NewStore(metadata.Config{Finder: finder})}
	h.mgr = cluster.NewManager(h.meta)
	for i := 0; i < n; i++ {
		st := kv.NewStore(storage.NewNull(), kv.Config{BucketCount: 1 << 10})
		w, err := libdpr.NewWorker(libdpr.WorkerConfig{
			ID:                 core.WorkerID(i + 1),
			Addr:               fmt.Sprintf("inproc-%d", i+1),
			CheckpointInterval: ckptEvery,
		}, st, h.meta)
		if err != nil {
			t.Fatal(err)
		}
		h.stores = append(h.stores, st)
		h.workers = append(h.workers, w)
		h.kvSess = append(h.kvSess, st.NewSession())
		h.lanes = append(h.lanes, w.NewLane())
	}
	t.Cleanup(func() {
		for i, w := range h.workers {
			h.lanes[i].Close()
			w.Stop()
			h.kvSess[i].Close()
			h.stores[i].Close()
		}
		leakcheck.Check(t)
	})
	return h
}

// do executes one single-op batch on worker widx and completes it.
func (h *harness) do(t *testing.T, s *libdpr.Session, widx int, key, val string) uint64 {
	t.Helper()
	hdr, err := s.NextBatch(1)
	if err != nil {
		t.Fatalf("NextBatch: %v", err)
	}
	w := h.workers[widx]
	if _, err := w.AdmitBatchGuarded(hdr, h.lanes[widx]); err != nil {
		t.Fatalf("AdmitBatchGuarded: %v", err)
	}
	var ver core.Version
	if val == "" {
		_, _, ver = h.kvSess[widx].Read([]byte(key), 0)
	} else if ver, err = h.kvSess[widx].Upsert([]byte(key), []byte(val)); err != nil {
		w.ReleaseBatch(hdr, h.lanes[widx], false)
		t.Fatal(err)
	}
	w.RecordDependency(ver, hdr.Dep)
	reply := w.Reply([]core.Version{ver})
	w.ReleaseBatch(hdr, h.lanes[widx], true)
	if err := s.CompleteBatch(w.ID(), hdr, reply); err != nil {
		t.Fatalf("CompleteBatch: %v", err)
	}
	return hdr.SeqStart
}

func TestEndToEndCommitFlow(t *testing.T) {
	h := newHarness(t, 2, metadata.FinderApproximate, 5*time.Millisecond)
	s, err := libdpr.NewSession(h.meta, true)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-shard session: A, B, A, B.
	h.do(t, s, 0, "x", "1")
	h.do(t, s, 1, "y", "2")
	h.do(t, s, 0, "x", "3")
	last := h.do(t, s, 1, "y", "4")
	if err := s.WaitCommit(last, 5*time.Second, nil); err != nil {
		t.Fatalf("commit never arrived: %v", err)
	}
	p, exc := s.Committed()
	if p < last || len(exc) != 0 {
		t.Fatalf("prefix %d (exceptions %v), want >= %d", p, exc, last)
	}
}

func TestProgressRuleFastForward(t *testing.T) {
	// Worker B lags (no checkpoint timer); when a session that saw a high
	// version on A arrives at B, B must fast-forward (§3.2).
	h := newHarness(t, 2, metadata.FinderApproximate, 0)
	s, err := libdpr.NewSession(h.meta, true)
	if err != nil {
		t.Fatal(err)
	}
	h.do(t, s, 0, "a", "1")
	// Manually push A's version ahead.
	h.stores[0].BeginCommit(9)
	waitVersion(t, h.stores[0], 10)
	h.do(t, s, 0, "a", "2") // session observes version 10
	if vs := s.Tracker().VersionClock(); vs < 10 {
		t.Fatalf("session clock should be >= 10, got %d", vs)
	}
	h.do(t, s, 1, "b", "1") // B must fast-forward to >= 10
	if v := h.stores[1].CurrentVersion(); v < 10 {
		t.Fatalf("worker B did not fast-forward: at %d", v)
	}
}

func waitVersion(t *testing.T, s *kv.Store, v core.Version) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.CurrentVersion() < v {
		if time.Now().After(deadline) {
			t.Fatalf("version %d never reached (at %d)", v, s.CurrentVersion())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestVmaxCatchUp(t *testing.T) {
	// A commits frequently, B never sees cross traffic; B's TriggerCommit
	// must fast-forward to Vmax so the approximate cut keeps advancing
	// (§3.4).
	h := newHarness(t, 2, metadata.FinderApproximate, 2*time.Millisecond)
	s, err := libdpr.NewSession(h.meta, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.do(t, s, 0, "a", fmt.Sprintf("%d", i))
		time.Sleep(3 * time.Millisecond)
	}
	// B, though idle, should catch up to A's version neighborhood.
	deadline := time.Now().Add(3 * time.Second)
	for {
		cut, vmax, _, _ := h.meta.State()
		if cut.Get(1) >= 2 && cut.Get(2) >= 2 && vmax >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cut never advanced on both workers: %v (vmax %d)", cut, vmax)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDependencyGating(t *testing.T) {
	// With the exact finder, a dependency from B onto A's uncommitted
	// version must gate B's commit.
	h := newHarness(t, 2, metadata.FinderExact, 0) // manual commits only
	s, err := libdpr.NewSession(h.meta, true)
	if err != nil {
		t.Fatal(err)
	}
	h.do(t, s, 0, "a", "1") // A version 1
	h.do(t, s, 1, "b", "1") // B version 1, depends on A-1
	// Commit only B.
	h.workers[1].TriggerCommit()
	waitPersist(t, h.stores[1], 1)
	// Give maintenance time to report.
	time.Sleep(20 * time.Millisecond)
	cut, _, _, _ := h.meta.State()
	if cut.Get(2) != 0 {
		t.Fatalf("B-1 must not commit before A-1 (dep): cut %v", cut)
	}
	// Now commit A; both should enter the cut.
	h.workers[0].TriggerCommit()
	waitPersist(t, h.stores[0], 1)
	deadline := time.Now().Add(3 * time.Second)
	for {
		cut, _, _, _ := h.meta.State()
		if cut.Get(1) >= 1 && cut.Get(2) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cut stuck at %v", cut)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitPersist(t *testing.T, s *kv.Store, v core.Version) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.PersistedVersion() < v {
		if time.Now().After(deadline) {
			t.Fatalf("persist %d never reached (at %d)", v, s.PersistedVersion())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestFailureRollbackAndSurvival(t *testing.T) {
	h := newHarness(t, 2, metadata.FinderApproximate, 5*time.Millisecond)
	s, err := libdpr.NewSession(h.meta, true)
	if err != nil {
		t.Fatal(err)
	}
	// Committed prefix: two ops, then wait for durability.
	h.do(t, s, 0, "k", "committed")
	seq2 := h.do(t, s, 1, "m", "committed")
	if err := s.WaitCommit(seq2, 5*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	// Stop auto-checkpointing so the next writes stay uncommitted: simulate
	// by writing and immediately failing.
	h.do(t, s, 0, "k", "lost")
	// Inject a failure.
	wl, cut, err := h.mgr.OnFailure()
	if err != nil {
		t.Fatal(err)
	}
	if wl != 1 {
		t.Fatalf("world-line should be 1, got %d", wl)
	}
	// The session discovers the failure on its next interaction.
	_, err = s.NextBatch(1)
	if err == nil {
		// Next batch may still succeed if issued before refresh; push a
		// world-line notification like a server reply would.
		err = s.NotifyWorldLine(wl)
	}
	var surv *core.SurvivalError
	if !errors.As(err, &surv) {
		t.Fatalf("expected SurvivalError, got %v", err)
	}
	if surv.SurvivingPrefix < seq2 {
		t.Fatalf("committed ops must survive: prefix %d < %d", surv.SurvivingPrefix, seq2)
	}
	if surv.SurvivingPrefix >= seq2+1 && len(surv.Exceptions) == 0 {
		t.Fatalf("the lost op must not silently survive: %+v (cut %v)", surv, cut)
	}
	// Application acknowledges and continues on the new world-line.
	s.Acknowledge()
	hdr, err := s.NextBatch(1)
	if err != nil {
		t.Fatalf("session must continue after acknowledge: %v", err)
	}
	if hdr.WorldLine != wl {
		t.Fatalf("new batches carry world-line %d, got %d", wl, hdr.WorldLine)
	}
	// The rolled-back value is gone on the store.
	val, status, _ := h.kvSess[0].Read([]byte("k"), 0)
	if status != kv.StatusOK || string(val) != "committed" {
		t.Fatalf("store should serve the committed value, got %q (%v)", val, status)
	}
}

// TestCommittedSessionCrossesRecovery: a session whose every operation is
// committed loses nothing to a recovery round, so the failure path that
// RefreshCommit runs on the new world-line surfaces no SurvivalError, keeps
// the committed floor, and lets the session issue without an Acknowledge.
func TestCommittedSessionCrossesRecovery(t *testing.T) {
	store := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	if err := store.RegisterWorker(1, "w1"); err != nil {
		t.Fatal(err)
	}
	s, err := libdpr.NewSession(store, true)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.NextBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteBatch(1, h, libdpr.BatchReply{Versions: []core.Version{3, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := store.ReportVersion(1, 3, nil); err != nil {
		t.Fatal(err)
	}
	if p, err := s.RefreshCommit(); err != nil || p != 2 {
		t.Fatalf("RefreshCommit = %d, %v; want floor 2", p, err)
	}

	wl, _ := store.BeginRecovery()
	store.CompleteRecoveryFor(wl)
	p, err := s.RefreshCommit()
	if err != nil {
		t.Fatalf("a fully committed session must cross the recovery cleanly: %v", err)
	}
	if p != 2 {
		t.Fatalf("floor = %d after the recovery, want 2", p)
	}
	hdr, err := s.NextBatch(1)
	if err != nil {
		t.Fatalf("session must issue on the new world-line without an Acknowledge: %v", err)
	}
	if hdr.WorldLine != wl {
		t.Fatalf("next batch on world-line %d, want %d", hdr.WorldLine, wl)
	}
}

func TestStaleClientRejected(t *testing.T) {
	h := newHarness(t, 1, metadata.FinderApproximate, 5*time.Millisecond)
	s, err := libdpr.NewSession(h.meta, true)
	if err != nil {
		t.Fatal(err)
	}
	h.do(t, s, 0, "a", "1")
	if _, _, err := h.mgr.OnFailure(); err != nil {
		t.Fatal(err)
	}
	// A batch built before the failure carries the old world-line and must
	// be rejected by the worker.
	hdr, err := s.NextBatch(1)
	if err != nil {
		// Session already learned about the failure via RefreshCommit etc.
		t.Skip("session already recovered")
	}
	if _, err := h.workers[0].AdmitBatchGuarded(hdr, h.lanes[0]); !errors.Is(err, libdpr.ErrBatchRejected) {
		t.Fatalf("stale batch must be rejected, got %v", err)
	}
}

func TestNestedFailures(t *testing.T) {
	// A heartbeat far apart: the pump commits each batch at once, the idle
	// worker catches up at its next heartbeat, and none lands between the
	// two failures below — a commit there would legitimately move the cut
	// the second round freezes.
	h := newHarness(t, 2, metadata.FinderApproximate, time.Second)
	s, err := libdpr.NewSession(h.meta, true)
	if err != nil {
		t.Fatal(err)
	}
	seq := h.do(t, s, 0, "k", "v")
	if err := s.WaitCommit(seq, 5*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	// Two failures in short succession (§7.4): the second arrives while
	// the system is conceptually still recovering from the first.
	wl1, cut1, err := h.mgr.OnFailure()
	if err != nil {
		t.Fatal(err)
	}
	wl2, cut2, err := h.mgr.OnFailure()
	if err != nil {
		t.Fatal(err)
	}
	if wl2 != wl1+1 {
		t.Fatalf("world-lines must be serial: %d then %d", wl1, wl2)
	}
	if !cut1.Equal(cut2) {
		t.Fatalf("nested recovery must reuse the frozen cut: %v vs %v", cut1, cut2)
	}
	if err := s.NotifyWorldLine(wl2); err != nil {
		var surv *core.SurvivalError
		if !errors.As(err, &surv) {
			t.Fatalf("expected survival error, got %v", err)
		}
		if surv.SurvivingPrefix < seq {
			t.Fatalf("committed prefix lost in nested recovery: %d < %d", surv.SurvivingPrefix, seq)
		}
		s.Acknowledge()
	}
	// System still serves and commits after both recoveries.
	seq2 := h.do(t, s, 1, "n", "after")
	if err := s.WaitCommit(seq2, 5*time.Second, nil); err != nil {
		t.Fatalf("commits must resume after nested recovery: %v", err)
	}
	if h.mgr.Recoveries() != 2 {
		t.Fatalf("expected 2 recoveries, got %d", h.mgr.Recoveries())
	}
}

func TestWorkerSelfHealsFromMetadata(t *testing.T) {
	// A worker that misses the rollback message must notice the advanced
	// world-line via finder polling and roll itself back.
	h := newHarness(t, 2, metadata.FinderApproximate, 5*time.Millisecond)
	s, err := libdpr.NewSession(h.meta, true)
	if err != nil {
		t.Fatal(err)
	}
	h.do(t, s, 0, "k", "v")
	// Bypass the manager for worker 2: only worker 1 gets the message.
	h.mgr.Detach(2)
	if _, _, err := h.mgr.OnFailure(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for h.workers[1].WorldLine() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker 2 never self-healed to the new world-line")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSessionUniqueIDs(t *testing.T) {
	h := newHarness(t, 1, metadata.FinderApproximate, 0)
	a, _ := libdpr.NewSession(h.meta, true)
	b, _ := libdpr.NewSession(h.meta, true)
	if a.ID() == b.ID() {
		t.Fatal("session ids must be unique")
	}
}
