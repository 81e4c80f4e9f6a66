package libdpr

import (
	"errors"
	"testing"
	"time"

	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/storage"
)

// newSweepWorker builds a worker whose heartbeat never ticks (an hour's
// interval): neither the era clock nor the sweep moves on its own, so tests
// drive both deterministically.
func newSweepWorker(t *testing.T) *Worker {
	t.Helper()
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	store := kv.NewStore(storage.NewNull(), kv.Config{})
	t.Cleanup(func() { store.Close() })
	w, err := NewWorker(WorkerConfig{ID: 1, CheckpointInterval: time.Hour}, store, meta)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAdmitTimeout(time.Second)
	t.Cleanup(w.Stop)
	return w
}

func (w *Worker) archivedGate(session uint64) (gateRec, bool) {
	w.archMu.Lock()
	defer w.archMu.Unlock()
	rec, ok := w.archived[session]
	return rec, ok
}

// TestGateSweepPreservesFence: ageing an idle session's gate out of the live
// map and rehydrating it on the next batch must preserve the sequence fence
// exactly — a stale replay from an abandoned connection is still rejected
// after the gate took a round trip through the archive.
func TestGateSweepPreservesFence(t *testing.T) {
	w := newSweepWorker(t)
	lane := w.NewLane()
	defer lane.Close()

	const session = 42
	h := BatchHeader{SessionID: session, WorldLine: w.WorldLine(), SeqStart: 0, NumOps: 4}
	if _, err := w.AdmitBatchGuarded(h, lane); err != nil {
		t.Fatalf("admit: %v", err)
	}
	w.ReleaseBatch(h, lane, true) // fence now at 4

	// Age the gate out. The gate's era is the current tick; a cutoff at it
	// qualifies.
	w.sweepGates(w.gateEra.Load())
	if _, live := w.gates.Load(uint64(session)); live {
		t.Fatal("idle gate still in the live map after sweep")
	}
	rec, ok := w.archivedGate(session)
	if !ok {
		t.Fatal("swept gate missing from the archive")
	}
	if rec.next != 4 || rec.wl != w.WorldLine() {
		t.Fatalf("archived fence = (wl %d, next %d), want (wl %d, next 4)", rec.wl, rec.next, w.WorldLine())
	}
	if w.sessionCount() == 0 {
		t.Fatal("sessionCount dropped archived gates")
	}

	// A stale replay (seq 2 < fence 4) must rehydrate the gate and reject.
	stale := BatchHeader{SessionID: session, WorldLine: w.WorldLine(), SeqStart: 2, NumOps: 1}
	if _, err := w.AdmitBatchGuarded(stale, lane); !errors.Is(err, ErrStaleBatch) {
		t.Fatalf("stale batch after rehydration: err = %v, want ErrStaleBatch", err)
	}
	if _, ok := w.archivedGate(session); ok {
		t.Fatal("archive entry not cleared after rehydration")
	}

	// The session resumes exactly where it left off.
	next := BatchHeader{SessionID: session, WorldLine: w.WorldLine(), SeqStart: 4, NumOps: 1}
	if _, err := w.AdmitBatchGuarded(next, lane); err != nil {
		t.Fatalf("in-order batch after rehydration: %v", err)
	}
	w.ReleaseBatch(next, lane, true)

	// A second ageing round archives the advanced fence.
	w.sweepGates(w.gateEra.Load())
	if rec, ok := w.archivedGate(session); !ok || rec.next != 5 {
		t.Fatalf("re-archived fence = %+v (present=%v), want next 5", rec, ok)
	}
}

// TestGateSweepSkipsActiveSessions: a session admitted this era is not aged
// out by a sweep whose cutoff is an older era.
func TestGateSweepSkipsActiveSessions(t *testing.T) {
	w := newSweepWorker(t)
	lane := w.NewLane()
	defer lane.Close()
	w.gateEra.Add(1) // an era before the admission exists

	h := BatchHeader{SessionID: 7, WorldLine: w.WorldLine(), SeqStart: 0, NumOps: 1}
	if _, err := w.AdmitBatchGuarded(h, lane); err != nil {
		t.Fatalf("admit: %v", err)
	}
	w.ReleaseBatch(h, lane, true)

	// A cutoff one era before the admission: the gate stays live.
	w.sweepGates(w.gateEra.Load() - 1)
	if _, live := w.gates.Load(uint64(7)); !live {
		t.Fatal("sweep aged out a session inside the idle window")
	}
}
