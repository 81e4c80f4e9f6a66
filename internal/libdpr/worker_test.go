package libdpr_test

import (
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/cluster"
	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/leakcheck"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/storage"
)

func TestAdmitBatchFastForwardTimeout(t *testing.T) {
	// A Vs far in the future with a store that cannot catch up in time must
	// fail admission rather than hang.
	meta := metadata.NewStore(metadata.Config{})
	dev := storage.NewMemDevice("glacial", storage.LatencyProfile{WriteLatency: time.Second})
	store := kv.NewStore(dev, kv.Config{})
	defer store.Close()
	w, err := libdpr.NewWorker(libdpr.WorkerConfig{ID: 1, CheckpointInterval: 0}, store, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	w.SetAdmitTimeout(30 * time.Millisecond)
	lane := w.NewLane()
	defer lane.Close()
	// Version bump happens quickly even on slow storage (the version
	// advances at checkpoint *start*), so Vs fast-forward usually succeeds;
	// verify both the success path and the already-current path.
	hdr := libdpr.BatchHeader{Vs: 3}
	if _, err := w.AdmitBatchGuarded(hdr, lane); err != nil {
		t.Fatalf("fast-forward should succeed (version advances at checkpoint start): %v", err)
	}
	w.ReleaseBatch(hdr, lane, false)
	if store.CurrentVersion() < 3 {
		t.Fatalf("version did not fast-forward: %d", store.CurrentVersion())
	}
	hdr = libdpr.BatchHeader{Vs: 1}
	if _, err := w.AdmitBatchGuarded(hdr, lane); err != nil {
		t.Fatalf("past Vs must admit immediately: %v", err)
	}
	w.ReleaseBatch(hdr, lane, false)
}

func TestReplySharedCutIsStable(t *testing.T) {
	// Reply's piggybacked cut is a shared immutable snapshot: successive
	// calls between refreshes return identical content, and later refreshes
	// must not mutate a previously returned cut in place.
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	store := kv.NewStore(storage.NewNull(), kv.Config{})
	defer store.Close()
	w, err := libdpr.NewWorker(libdpr.WorkerConfig{
		ID: 1, CheckpointInterval: 2 * time.Millisecond,
	}, store, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	sess := store.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v"))

	before := w.Reply(nil).Cut
	snapshot := before.Clone()
	// Let checkpoints/reports advance the cut.
	deadline := time.Now().Add(3 * time.Second)
	for w.CurrentCut().Get(1) == snapshot.Get(1) {
		if time.Now().After(deadline) {
			t.Fatal("cut never advanced")
		}
		time.Sleep(time.Millisecond)
	}
	if !before.Equal(snapshot) {
		t.Fatalf("previously returned cut mutated in place: %v vs %v", before, snapshot)
	}
}

func TestRecordDependencyIgnoresSelfAndZero(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderExact})
	store := kv.NewStore(storage.NewNull(), kv.Config{})
	defer store.Close()
	w, err := libdpr.NewWorker(libdpr.WorkerConfig{ID: 1}, store, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	sess := store.NewSession()
	defer sess.Close()
	v, _ := sess.Upsert([]byte("k"), []byte("v"))
	// Self-dependency and zero dependency must not gate the commit.
	w.RecordDependency(v, core.Token{Worker: 1, Version: v})
	w.RecordDependency(v, core.Token{})
	if err := w.TriggerCommit(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		cut, _, _, _ := meta.State()
		if cut.Get(1) >= v {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("self/zero deps gated the cut: %v", cut)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerRollbackIdempotentPerWorldLine: the watch loop and the heartbeat
// can both enter rollback for one world-line; the second call is a no-op and
// keeps the data written between the two.
func TestWorkerRollbackIdempotentPerWorldLine(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	store := kv.NewStore(storage.NewNull(), kv.Config{})
	defer store.Close()
	w, err := libdpr.NewWorker(libdpr.WorkerConfig{ID: 1}, store, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	sess := store.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v1"))
	store.BeginCommit(1)
	waitPersist(t, store, 1)
	cut := core.Cut{1: 1}
	if err := w.RollbackForTest(1, cut); err != nil {
		t.Fatal(err)
	}
	rollbacksAfterFirst := store.Rollbacks()
	sess.Upsert([]byte("k"), []byte("v2"))
	if err := w.RollbackForTest(1, cut); err != nil {
		t.Fatal(err)
	}
	if store.Rollbacks() != rollbacksAfterFirst {
		t.Fatal("duplicate rollback for the same world-line must be a no-op")
	}
	val, status, _ := sess.Read([]byte("k"), 0)
	if status != kv.StatusOK || string(val) != "v2" {
		t.Fatalf("duplicate rollback erased post-recovery data: %q (%v)", val, status)
	}
}

// TestWorkerRollbackOnlyOnNewWorldLine: a worker's refresh rolls it back into
// a new world-line once. Every refresh after that finds the worker already
// there, so data written after the rollback survives them.
func TestWorkerRollbackOnlyOnNewWorldLine(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	store := kv.NewStore(storage.NewNull(), kv.Config{})
	defer store.Close()
	w, err := libdpr.NewWorker(libdpr.WorkerConfig{ID: 1}, store, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	sess := store.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v1"))
	store.BeginCommit(1)
	waitPersist(t, store, 1)
	wl, _ := meta.BeginRecovery()
	waitUntil(t, "the worker rolls back into the new world-line", func() bool { return w.WorldLine() == wl })
	rollbacksAfterFirst := store.Rollbacks()
	sess.Upsert([]byte("k"), []byte("v2"))
	meta.CompleteRecoveryFor(wl)           // a generation bump: the watch loop refreshes
	time.Sleep(3 * libdpr.ManualHeartbeat) // and so does every heartbeat
	if store.Rollbacks() != rollbacksAfterFirst {
		t.Fatal("a refresh on the world-line the worker is already on must not roll back again")
	}
	val, status, _ := sess.Read([]byte("k"), 0)
	if status != kv.StatusOK || string(val) != "v2" {
		t.Fatalf("a later refresh erased post-recovery data: %q (%v)", val, status)
	}
}

func TestSessionRelaxedVsStrictConstruction(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{})
	relaxed, err := libdpr.NewSession(meta, true)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := libdpr.NewSession(meta, false)
	if err != nil {
		t.Fatal(err)
	}
	if !relaxed.Tracker().Relaxed() || strict.Tracker().Relaxed() {
		t.Fatal("relaxed flag not propagated")
	}
}

func TestWorkerStateObjectAccessor(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{})
	store := kv.NewStore(storage.NewNull(), kv.Config{})
	defer store.Close()
	w, err := libdpr.NewWorker(libdpr.WorkerConfig{ID: 1}, store, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if w.StateObject() != libdpr.StateObject(store) {
		t.Fatal("StateObject must return the wrapped store")
	}
	if w.ID() != 1 {
		t.Fatalf("id %d", w.ID())
	}
}

func TestNotifyWorldLineStaleAndUnresolvable(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{})
	s, err := libdpr.NewSession(meta, true)
	if err != nil {
		t.Fatal(err)
	}
	// Stale (not ahead) world-line: no-op.
	if err := s.NotifyWorldLine(0); err != nil {
		t.Fatalf("stale notification must be ignored: %v", err)
	}
	// Ahead but the metadata store has no recovered cut yet for it: the
	// session surfaces a transient error and stays on its world-line so a
	// later retry can resolve survival properly.
	if err := s.NotifyWorldLine(7); err == nil {
		t.Fatal("unresolvable world-line must surface a transient error")
	}
	if s.Tracker().WorldLine() != 0 {
		t.Fatal("session must not advance without computing survival")
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// sickStore is a kv store whose Restore fails while sick is set, as one whose
// device cannot be read.
type sickStore struct {
	*kv.Store
	sick     atomic.Bool
	failures atomic.Int32
}

func (s *sickStore) Restore(v core.Version) error {
	if s.sick.Load() {
		s.failures.Add(1)
		return errors.New("restore: device unreadable")
	}
	return s.Store.Restore(v)
}

// TestRoundOutlivesAFailedRestore: a survivor whose restore fails neither ends
// the recovery round with the cut frozen nor costs it a second world-line. It
// retries on its next refresh, and the round resumes DPR progress once it has
// healed.
func TestRoundOutlivesAFailedRestore(t *testing.T) {
	t.Cleanup(func() { leakcheck.Check(t) }) // registered first: runs after the workers are down
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	mgr := cluster.NewManager(meta)
	healthy := kv.NewStore(storage.NewNull(), kv.Config{BucketCount: 1 << 10})
	sick := &sickStore{Store: kv.NewStore(storage.NewNull(), kv.Config{BucketCount: 1 << 10})}
	t.Cleanup(func() { healthy.Close(); sick.Close() })
	var survivor *libdpr.Worker
	for i, so := range []libdpr.StateObject{healthy, sick} {
		w, err := libdpr.NewWorker(libdpr.WorkerConfig{
			ID: core.WorkerID(i + 1), CheckpointInterval: 5 * time.Millisecond,
		}, so, meta)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		survivor = w
	}

	sick.sick.Store(true)
	done := make(chan error, 1)
	go func() {
		_, _, err := mgr.OnFailure()
		done <- err
	}()
	waitUntil(t, "the survivor tries to restore", func() bool { return sick.failures.Load() > 0 })
	select {
	case err := <-done:
		t.Fatalf("the round ended (err %v) while a survivor could not restore", err)
	case <-time.After(20 * time.Millisecond):
	}
	if !meta.Frozen() {
		t.Fatal("DPR progress resumed before the survivor rolled back")
	}
	sick.sick.Store(false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("round: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the round did not resume after the survivor healed")
	}
	if wl := meta.WorldLine(); wl != 1 || survivor.WorldLine() != 1 {
		t.Fatalf("finder on world-line %d, survivor on %d: the round must spend exactly one", wl, survivor.WorldLine())
	}
	if meta.Frozen() {
		t.Fatal("DPR progress must resume once the survivor healed")
	}
}

// unreachable is a metadata service whose State fails while down is set: the
// worker's view of the finder stalls while its reports still get through.
type unreachable struct {
	metadata.Service
	down atomic.Bool
}

func (u *unreachable) State() (core.Cut, core.Version, core.WorldLine, error) {
	if u.down.Load() {
		return nil, 0, 0, errors.New("finder unreachable")
	}
	return u.Service.State()
}

// TestCutViewWaitsForTheHeal: a worker whose rollback into the finder's new
// world-line fails keeps the cut view of the world-line it is on, for every
// reader: the committed-version gauge and CommittedVersion (the kv compaction
// bound) read one snapshot, before and after the heal.
func TestCutViewWaitsForTheHeal(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	view := &unreachable{Service: meta}
	reg := obs.NewRegistry()
	store := &sickStore{Store: kv.NewStore(storage.NewNull(), kv.Config{})}
	defer store.Close()
	w, err := libdpr.NewWorker(libdpr.WorkerConfig{ID: 1, Obs: reg}, store, view)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	gauge := func() core.Version {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "dpr_worker_committed_version{") {
				v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
				if err != nil {
					t.Fatal(err)
				}
				return core.Version(v)
			}
		}
		t.Fatal("no dpr_worker_committed_version series")
		return 0
	}

	// The worker commits version 1 while it cannot see the finder's cut.
	view.down.Store(true)
	sess := store.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v"))
	store.BeginCommit(1)
	waitUntil(t, "the finder's cut covers version 1", func() bool {
		cut, _, _, _ := meta.State()
		return cut.Get(1) >= 1
	})
	store.sick.Store(true)
	wl, _ := meta.BeginRecovery()
	view.down.Store(false)
	waitUntil(t, "the worker tries to roll back", func() bool { return store.failures.Load() > 1 })
	if g, cv := gauge(), w.CommittedVersion(); g != cv || w.CurrentCut().Get(1) != cv {
		t.Fatalf("a worker that has not joined world-line %d reads three cuts: gauge %d, CommittedVersion %d, CurrentCut %v",
			wl, g, cv, w.CurrentCut())
	}
	store.sick.Store(false)
	waitUntil(t, "the worker heals and takes in the cut", func() bool { return w.WorldLine() == wl && w.CommittedVersion() == 1 })
	if g := gauge(); g != 1 {
		t.Fatalf("gauge %d after the heal, CommittedVersion 1", g)
	}
}
