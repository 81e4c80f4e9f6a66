package libdpr_test

import (
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/storage"
)

func TestAdmitBatchFastForwardTimeout(t *testing.T) {
	// A Vs far in the future with a store that cannot catch up in time must
	// fail admission rather than hang.
	meta := metadata.NewStore(metadata.Config{})
	dev := storage.NewMemDevice("glacial", storage.LatencyProfile{WriteLatency: time.Second})
	store := kv.NewStore(dev, kv.Config{})
	defer store.Close()
	w, err := libdpr.NewWorker(libdpr.WorkerConfig{
		ID: 1, CheckpointInterval: 0, AdmitTimeout: 30 * time.Millisecond,
	}, store, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
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
	for store.PersistedVersion() < 1 {
		time.Sleep(time.Millisecond)
	}
	cut := core.Cut{1: 1}
	if err := w.Rollback(1, cut); err != nil {
		t.Fatal(err)
	}
	rollbacksAfterFirst := store.Rollbacks()
	// Data written after the first rollback must survive a duplicate
	// rollback call for the same world-line.
	sess.Upsert([]byte("k"), []byte("v2"))
	if err := w.Rollback(1, cut); err != nil {
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
