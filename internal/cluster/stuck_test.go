package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/leakcheck"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/storage"
)

// stuckStore is a kv store whose Restore fails while stuck is set.
type stuckStore struct {
	*kv.Store
	stuck atomic.Bool
}

func (s *stuckStore) Restore(v core.Version) error {
	if s.stuck.Load() {
		return errors.New("restore: device unreadable")
	}
	return s.Store.Restore(v)
}

// TestStuckWorkerStaysOutOfTheCut: a round resumes at its ack bound while one
// survivor cannot restore. That survivor stays on the old world-line and goes
// on committing there, but the new world-line's cut never passes its
// recovered position until it has healed: its rollback erases those commits.
func TestStuckWorkerStaysOutOfTheCut(t *testing.T) {
	t.Cleanup(func() { leakcheck.Check(t) }) // registered first: runs after the workers are down
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderExact})
	mgr := NewManager(meta)
	mgr.ackBound = 50 * time.Millisecond
	healthy := kv.NewStore(storage.NewNull(), kv.Config{BucketCount: 1 << 10})
	sick := &stuckStore{Store: kv.NewStore(storage.NewNull(), kv.Config{BucketCount: 1 << 10})}
	t.Cleanup(func() { healthy.Close(); sick.Close() })
	var workers []*libdpr.Worker
	for i, so := range []libdpr.StateObject{healthy, sick} {
		w, err := libdpr.NewWorker(libdpr.WorkerConfig{
			ID: core.WorkerID(i + 1), CheckpointInterval: 2 * time.Millisecond,
		}, so, meta)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		workers = append(workers, w)
	}
	const stuckID = 2
	stuck := workers[1]
	sess := sick.NewSession()
	defer sess.Close()
	write := func() { sess.Upsert([]byte("k"), []byte("v")) }
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s", what)
			}
		}
	}
	write()
	waitFor("the cut covers a write of the stuck worker", func() bool {
		cut, _, _, _ := meta.State()
		return cut.Get(stuckID) > 0
	})

	sick.stuck.Store(true)
	timeouts := ackTimeoutsC.Value()
	wl, recovered, err := mgr.OnFailure()
	if err != nil {
		t.Fatal(err)
	}
	if ackTimeoutsC.Value() == timeouts || meta.Frozen() {
		t.Fatal("the round must resume at its ack bound while a survivor cannot restore")
	}
	p := recovered.Get(stuckID)
	// The stuck worker keeps committing on the old world-line, and the
	// healthy one on the new: the cut moves, but not past p on the stuck one.
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		write()
		cut, _, _, _ := meta.State()
		if stuck.WorldLine() >= wl { // read after the cut: a heal before it would explain a higher cut
			t.Fatal("the stuck worker rolled back while its restore was failing")
		}
		if cut.Get(stuckID) > p {
			t.Fatalf("world-line %d's cut covers version %d of a worker that has not rolled back to %d", wl, cut.Get(stuckID), p)
		}
	}
	if got := sick.PersistedVersion(); got <= p {
		t.Fatalf("the stuck worker persisted nothing past its recovered position %d (at %d): the check saw no commits", p, got)
	}
	waitFor("the healthy worker commits on the new world-line", func() bool {
		cut, _, _, _ := meta.State()
		return cut.Get(1) > recovered.Get(1)
	})

	sick.stuck.Store(false)
	waitFor("the stuck worker heals and its cut moves on", func() bool {
		write()
		cut, _, _, _ := meta.State()
		return stuck.WorldLine() == wl && cut.Get(stuckID) > p
	})
}
