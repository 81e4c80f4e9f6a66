package kv

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/storage"
)

// TestShardedIndexConcurrentStress hammers a multi-shard store from
// concurrent writer, reader, and RMW sessions while checkpoints (which
// advance the frozen boundary and hence route reads through the lock-free
// fast path) and a mid-run compaction reshape the log. Run under -race this
// is the data-race certification of the sharded epoch-protected index; the
// value checks certify that lock-free reads never observe a torn or stale
// value.
func TestShardedIndexConcurrentStress(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{
		BucketCount: 1 << 8,
		IndexShards: 4,
	})
	t.Cleanup(s.Close)

	const (
		keys      = 128
		writers   = 3
		readers   = 3
		counters  = 32 // RMW keyspace, disjoint from the upsert keys
		rmwDeltas = 2
	)
	key := func(i int) []byte { return []byte(fmt.Sprintf("stress-key-%04d", i)) }
	// Values encode the key id so a read can verify it got some complete
	// write of the right key: "v-<id>-<round>" with fixed-width fields.
	val := func(i, round int) []byte { return []byte(fmt.Sprintf("v-%04d-%06d", i, round)) }

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+2)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			for round := 1; !stop.Load(); round++ {
				for i := w; i < keys; i += writers {
					if round%17 == 0 {
						if _, err := sess.Delete(key(i)); err != nil {
							errs <- err
							return
						}
						continue
					}
					if _, err := sess.Upsert(key(i), val(i, round)); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}

	var rmwTotal atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := s.NewSession()
		defer sess.Close()
		for !stop.Load() {
			for i := 0; i < counters; i++ {
				st, _, _ := sess.RMW([]byte(fmt.Sprintf("ctr-%03d", i)), rmwDeltas, 0)
				if st == StatusPending {
					sess.CompletePending(true)
				}
				rmwTotal.Add(rmwDeltas)
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			var arena []byte
			for !stop.Load() {
				for i := 0; i < keys; i++ {
					arena = arena[:0]
					v, status, _ := sess.ReadAppend(&arena, key(i), uint64(i))
					switch status {
					case StatusOK:
						want := fmt.Sprintf("v-%04d-", i)
						if len(v) != len(want)+6 || string(v[:len(want)]) != want {
							errs <- fmt.Errorf("key %d: torn/foreign value %q", i, v)
							return
						}
					case StatusNotFound, StatusPending:
					default:
						errs <- fmt.Errorf("key %d: status %v", i, status)
						return
					}
					if status == StatusPending {
						sess.CompletePending(true)
					}
				}
			}
		}()
	}

	// Checkpoint loop: every pass advances the frozen boundary so the
	// readers alternate between the lock-free and locked paths.
	deadline := time.Now().Add(2 * time.Second)
	ckpts := 0
	for time.Now().Before(deadline) && len(errs) == 0 {
		target := s.CurrentVersion()
		if err := s.BeginCommit(target); err != nil {
			t.Fatal(err)
		}
		waitPersisted(t, s, target)
		ckpts++
		if ckpts == 3 {
			// Mid-run compaction: relinks chains and releases slabs under
			// the same traffic. Nothing here rolls back, so everything
			// persisted counts as committed.
			s.CommittedBy(s.PersistedVersion)
			if _, _, err := s.Compact(s.log.readOnly.Load()); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ckpts < 2 {
		t.Fatalf("only %d checkpoints completed; stress window too short", ckpts)
	}

	// Quiesced sum check: the RMW counters must account for every delta.
	sess := s.NewSession()
	defer sess.Close()
	var sum uint64
	for i := 0; i < counters; i++ {
		v := mustRead(t, sess, fmt.Sprintf("ctr-%03d", i))
		if len(v) >= 8 {
			sum += uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24 |
				uint64(v[4])<<32 | uint64(v[5])<<40 | uint64(v[6])<<48 | uint64(v[7])<<56
		}
	}
	if sum != rmwTotal.Load() {
		t.Fatalf("RMW sum %d, want %d", sum, rmwTotal.Load())
	}
}

// TestLockFreeReadPathAllocFree proves the epoch-protected read fast path
// performs zero allocations: after a fold-over checkpoint publishes the
// frozen boundary, reads of checkpointed keys traverse and copy without the
// stripe lock and without touching the heap.
func TestLockFreeReadPathAllocFree(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{BucketCount: 1 << 10, IndexShards: 4})
	t.Cleanup(s.Close)
	sess := s.NewSession()
	defer sess.Close()
	const keys = 64
	for i := 0; i < keys; i++ {
		if _, err := sess.Upsert([]byte(fmt.Sprintf("af-key-%03d", i)),
			[]byte(fmt.Sprintf("af-value-%08d", i))); err != nil {
			t.Fatal(err)
		}
	}
	target := s.CurrentVersion()
	if err := s.BeginCommit(target); err != nil {
		t.Fatal(err)
	}
	waitPersisted(t, s, target)
	if s.log.frozen.Load() == 0 {
		t.Fatal("fold-over checkpoint did not publish a frozen boundary")
	}

	keyBufs := make([][]byte, keys)
	for i := range keyBufs {
		keyBufs[i] = []byte(fmt.Sprintf("af-key-%03d", i))
	}
	arena := make([]byte, 0, 1<<16)
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		arena = arena[:0]
		v, status, _ := sess.ReadAppend(&arena, keyBufs[i%keys], 0)
		if status != StatusOK || len(v) == 0 {
			t.Fatalf("read %d: status %v", i, status)
		}
		i++
	}); n != 0 {
		t.Fatalf("lock-free read path allocates %.2f allocs/op, want 0", n)
	}
}

// TestLockFreeReadFallsBackToMutable checks the fast path's boundary logic:
// a key updated after the checkpoint (living above frozen, where in-place
// updates may still occur) must be served its newest value via the locked
// path, not a stale frozen version.
func TestLockFreeReadFallsBackToMutable(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{BucketCount: 1 << 8, IndexShards: 2})
	t.Cleanup(s.Close)
	sess := s.NewSession()
	defer sess.Close()
	if _, err := sess.Upsert([]byte("fb-key"), []byte("old-value")); err != nil {
		t.Fatal(err)
	}
	target := s.CurrentVersion()
	if err := s.BeginCommit(target); err != nil {
		t.Fatal(err)
	}
	waitPersisted(t, s, target)
	// The frozen copy says "old-value"; this update lands above frozen.
	if _, err := sess.Upsert([]byte("fb-key"), []byte("new-value")); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, sess, "fb-key"); string(got) != "new-value" {
		t.Fatalf("got %q, want the post-checkpoint value", got)
	}
	// Tombstones above frozen must also win over frozen live versions.
	if _, err := sess.Delete([]byte("fb-key")); err != nil {
		t.Fatal(err)
	}
	if _, status, _ := sess.Read([]byte("fb-key"), 0); status != StatusNotFound {
		t.Fatalf("status %v after delete, want NOT_FOUND", status)
	}
}

// TestRecoverShardedParallelRebuild exercises the per-shard parallel index
// rebuild: recover a multi-shard store and verify every surviving key is
// served with its checkpointed value.
func TestRecoverShardedParallelRebuild(t *testing.T) {
	dev := storage.NewNull()
	cfg := Config{BucketCount: 1 << 8, IndexShards: 4}
	s := NewStore(dev, cfg)
	sess := s.NewSession()
	const keys = 300
	for i := 0; i < keys; i++ {
		if _, err := sess.Upsert([]byte(fmt.Sprintf("rk-%04d", i)),
			[]byte(fmt.Sprintf("rv-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	target := s.CurrentVersion()
	if err := s.BeginCommit(target); err != nil {
		t.Fatal(err)
	}
	waitPersisted(t, s, target)
	sess.Close()
	s.Close()

	r, err := Recover(dev, cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if r.log.frozen.Load() == 0 {
		t.Fatal("recovered store did not publish a frozen boundary")
	}
	rsess := r.NewSession()
	defer rsess.Close()
	for i := 0; i < keys; i++ {
		got := mustRead(t, rsess, fmt.Sprintf("rk-%04d", i))
		if string(got) != fmt.Sprintf("rv-%04d", i) {
			t.Fatalf("key %d: got %q", i, got)
		}
	}
}
