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

// TestWorkerHotPathZeroAlloc pins the per-batch server-side libDPR work to
// zero allocations: Reply reads the shared cut snapshot, and
// RecordDependency's duplicate cache skips the deps map when a session
// repeats the same (version, dependency) pair. The heartbeat is set far
// beyond the test's runtime so background maintenance cannot pollute the
// allocation counts.
func TestWorkerHotPathZeroAlloc(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	store := kv.NewStore(storage.NewNull(), kv.Config{})
	defer store.Close()
	w, err := libdpr.NewWorker(libdpr.WorkerConfig{
		ID: 1, CheckpointInterval: time.Hour,
	}, store, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	versions := make([]core.Version, 64)
	var sink libdpr.BatchReply
	if n := testing.AllocsPerRun(100, func() {
		sink = w.Reply(versions)
	}); n != 0 {
		t.Fatalf("Reply allocates %.1f/op, want 0", n)
	}
	_ = sink

	dep := core.Token{Worker: 2, Version: 3}
	w.RecordDependency(5, dep) // warm the duplicate cache
	if n := testing.AllocsPerRun(100, func() {
		w.RecordDependency(5, dep)
	}); n != 0 {
		t.Fatalf("RecordDependency (repeated dep) allocates %.1f/op, want 0", n)
	}
}
