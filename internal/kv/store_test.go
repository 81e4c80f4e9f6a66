package kv

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/storage"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(storage.NewNull(), Config{BucketCount: 1 << 10})
	t.Cleanup(s.Close)
	return s
}

func mustRead(t *testing.T, sess *Session, key string) []byte {
	t.Helper()
	val, status, _ := sess.Read([]byte(key), 0)
	if status == StatusPending {
		for _, c := range sess.CompletePending(true) {
			if c.Serial == 0 {
				val, status = c.Value, c.Status
			}
		}
	}
	if status != StatusOK {
		t.Fatalf("read %q: status %v", key, status)
	}
	return val
}

func TestUpsertRead(t *testing.T) {
	s := newTestStore(t)
	sess := s.NewSession()
	defer sess.Close()
	if _, err := sess.Upsert([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, sess, "k1"); string(got) != "v1" {
		t.Fatalf("got %q", got)
	}
	// Overwrite in place (same version, same size).
	if _, err := sess.Upsert([]byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, sess, "k1"); string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
	// Grow beyond capacity: forces RCU.
	if _, err := sess.Upsert([]byte("k1"), []byte("a-much-longer-value")); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, sess, "k1"); string(got) != "a-much-longer-value" {
		t.Fatalf("got %q", got)
	}
}

func TestReadMissing(t *testing.T) {
	s := newTestStore(t)
	sess := s.NewSession()
	defer sess.Close()
	if _, status, _ := sess.Read([]byte("absent"), 0); status != StatusNotFound {
		t.Fatalf("expected NOT_FOUND, got %v", status)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := newTestStore(t)
	sess := s.NewSession()
	defer sess.Close()
	if _, err := sess.Upsert(nil, []byte("v")); err == nil {
		t.Fatal("empty key must be rejected")
	}
	if _, err := sess.Delete(nil); err == nil {
		t.Fatal("empty key must be rejected")
	}
}

func TestDelete(t *testing.T) {
	s := newTestStore(t)
	sess := s.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v"))
	if _, err := sess.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, status, _ := sess.Read([]byte("k"), 0); status != StatusNotFound {
		t.Fatalf("expected NOT_FOUND after delete, got %v", status)
	}
	// Re-insert after delete.
	sess.Upsert([]byte("k"), []byte("v2"))
	if got := mustRead(t, sess, "k"); string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
}

func TestRMW(t *testing.T) {
	s := newTestStore(t)
	sess := s.NewSession()
	defer sess.Close()
	if status, _, _ := sess.RMW([]byte("ctr"), 5, 0); status != StatusOK {
		t.Fatalf("status %v", status)
	}
	if status, _, _ := sess.RMW([]byte("ctr"), 7, 0); status != StatusOK {
		t.Fatalf("status %v", status)
	}
	got := mustRead(t, sess, "ctr")
	if binary.LittleEndian.Uint64(got) != 12 {
		t.Fatalf("counter = %d, want 12", binary.LittleEndian.Uint64(got))
	}
}

func TestHashCollisionChains(t *testing.T) {
	// Tiny index forces collisions; all keys must still resolve.
	s := NewStore(storage.NewNull(), Config{BucketCount: 2})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		v := []byte(fmt.Sprintf("val-%d", i))
		if _, err := sess.Upsert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got := mustRead(t, sess, fmt.Sprintf("key-%d", i))
		if string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key-%d: got %q", i, got)
		}
	}
}

func TestVersionAdvancesWithCheckpoint(t *testing.T) {
	s := newTestStore(t)
	sess := s.NewSession()
	defer sess.Close()
	v1, _ := sess.Upsert([]byte("a"), []byte("1"))
	if v1 != 1 {
		t.Fatalf("first ops run in version 1, got %d", v1)
	}
	if err := s.BeginCommit(1); err != nil {
		t.Fatal(err)
	}
	waitPersisted(t, s, 1)
	v2, _ := sess.Upsert([]byte("a"), []byte("2"))
	if v2 != 2 {
		t.Fatalf("post-checkpoint ops run in version 2, got %d", v2)
	}
	if got := mustRead(t, sess, "a"); string(got) != "2" {
		t.Fatalf("got %q", got)
	}
}

func waitPersisted(t *testing.T, s *Store, v core.Version) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.PersistedVersion() < v {
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint %d did not persist (at %d)", v, s.PersistedVersion())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCheckpointFastForward(t *testing.T) {
	s := newTestStore(t)
	sess := s.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("a"), []byte("1"))
	// Fast-forward request (§3.4 Vmax catch-up): jump to version 10.
	if err := s.BeginCommit(10); err != nil {
		t.Fatal(err)
	}
	waitPersisted(t, s, 10)
	if v, _ := sess.Upsert([]byte("a"), []byte("2")); v != 11 {
		t.Fatalf("expected version 11 after fast-forward, got %d", v)
	}
}

func TestCheckpointNonBlocking(t *testing.T) {
	// Operations must keep completing while a checkpoint's flush is slow.
	dev := storage.NewMemDevice("slow", storage.LatencyProfile{WriteLatency: 50 * time.Millisecond})
	s := NewStore(dev, Config{BucketCount: 1 << 8})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v"))
	s.BeginCommit(1)
	// While flushing, ops should complete promptly.
	start := time.Now()
	for i := 0; i < 100; i++ {
		if _, err := sess.Upsert([]byte("k"), []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("operations blocked on checkpoint flush: %v", elapsed)
	}
	waitPersisted(t, s, 1)
}

func TestRollbackDiscardsUncommitted(t *testing.T) {
	s := newTestStore(t)
	sess := s.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v1")) // version 1
	s.BeginCommit(1)
	waitPersisted(t, s, 1)
	sess.Upsert([]byte("k"), []byte("v2")) // version 2 (uncommitted)
	sess.Upsert([]byte("new"), []byte("x"))
	// Roll back to version 1.
	if err := s.Restore(1); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, sess, "k"); string(got) != "v1" {
		t.Fatalf("rolled-back read: got %q, want v1", got)
	}
	if _, status, _ := sess.Read([]byte("new"), 0); status != StatusNotFound {
		t.Fatalf("key written in rolled-back version must vanish, got %v", status)
	}
	// New writes execute in a fresh version and are visible.
	v, _ := sess.Upsert([]byte("k"), []byte("v3"))
	if v <= 2 {
		t.Fatalf("post-rollback version must exceed rolled-back versions, got %d", v)
	}
	if got := mustRead(t, sess, "k"); string(got) != "v3" {
		t.Fatalf("got %q", got)
	}
}

func TestRollbackDelete(t *testing.T) {
	s := newTestStore(t)
	sess := s.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v1"))
	s.BeginCommit(1)
	waitPersisted(t, s, 1)
	sess.Delete([]byte("k")) // delete in version 2
	if _, status, _ := sess.Read([]byte("k"), 0); status != StatusNotFound {
		t.Fatal("delete should be visible before rollback")
	}
	s.Restore(1)
	if got := mustRead(t, sess, "k"); string(got) != "v1" {
		t.Fatalf("rolled-back delete must resurrect value, got %q", got)
	}
}

func TestRollbackNothingLost(t *testing.T) {
	s := newTestStore(t)
	sess := s.NewSession()
	defer sess.Close()
	v, _ := sess.Upsert([]byte("k"), []byte("v"))
	// Restore to the current version: nothing is lost, version advances.
	if err := s.Restore(v); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, sess, "k"); string(got) != "v" {
		t.Fatalf("got %q", got)
	}
	if nv, _ := sess.Upsert([]byte("k"), []byte("w")); nv <= v {
		t.Fatalf("version should advance after restore, got %d", nv)
	}
}

func TestDoubleRollback(t *testing.T) {
	// Nested failures (§7.4): two rollbacks in short succession.
	s := newTestStore(t)
	sess := s.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v1"))
	s.BeginCommit(1)
	waitPersisted(t, s, 1)
	sess.Upsert([]byte("k"), []byte("v2"))
	s.Restore(1)
	sess.Upsert([]byte("k"), []byte("v3"))
	s.Restore(1)
	if got := mustRead(t, sess, "k"); string(got) != "v1" {
		t.Fatalf("after double rollback got %q, want v1", got)
	}
	if s.Rollbacks() != 2 {
		t.Fatalf("expected 2 rollbacks, got %d", s.Rollbacks())
	}
}

func TestOpsContinueDuringRollback(t *testing.T) {
	s := newTestStore(t)
	sess := s.NewSession()
	defer sess.Close()
	for i := 0; i < 1000; i++ {
		sess.Upsert([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	s.BeginCommit(1)
	waitPersisted(t, s, 1)
	for i := 0; i < 1000; i++ {
		sess.Upsert([]byte(fmt.Sprintf("k%d", i)), []byte("w"))
	}
	// Concurrent ops from another session while Restore runs.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess2 := s.NewSession()
		defer sess2.Close()
		for i := 0; i < 2000; i++ {
			sess2.Read([]byte(fmt.Sprintf("k%d", i%1000)), uint64(i))
		}
		sess2.CompletePending(true)
	}()
	if err := s.Restore(1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := mustRead(t, sess, "k0"); string(got) != "v" {
		t.Fatalf("got %q, want v", got)
	}
}

func TestRecoverFromDevice(t *testing.T) {
	dev := storage.NewNull()
	s := NewStore(dev, Config{BucketCount: 1 << 8})
	sess := s.NewSession()
	for i := 0; i < 200; i++ {
		sess.Upsert([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	s.BeginCommit(1)
	waitPersisted(t, s, 1)
	// Writes after the checkpoint must NOT survive recovery to version 1.
	sess.Upsert([]byte("k0"), []byte("uncommitted"))
	sess.Upsert([]byte("post"), []byte("x"))
	s.BeginCommit(2)
	waitPersisted(t, s, 2)
	sess.Close()
	s.Close()

	// Recover to version 1 (simulating a crash after checkpoint 2 where DPR
	// decided the cut is at version 1).
	r, err := Recover(dev, Config{BucketCount: 1 << 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.NewSession()
	defer rs.Close()
	if got := mustRead(t, rs, "k0"); string(got) != "v0" {
		t.Fatalf("recovered k0 = %q, want v0", got)
	}
	if got := mustRead(t, rs, "k199"); string(got) != "v199" {
		t.Fatalf("recovered k199 = %q", got)
	}
	if _, status, _ := rs.Read([]byte("post"), 0); status != StatusNotFound {
		t.Fatalf("version-2 write must not survive recovery to 1, got %v", status)
	}
	if r.PersistedVersion() != 1 {
		t.Fatalf("recovered persisted version = %d", r.PersistedVersion())
	}
	// The recovered store keeps working: new writes, new checkpoints.
	if _, err := rs.Upsert([]byte("k0"), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, rs, "k0"); string(got) != "fresh" {
		t.Fatalf("got %q", got)
	}
}

func TestRecoverToLatest(t *testing.T) {
	dev := storage.NewNull()
	s := NewStore(dev, Config{})
	sess := s.NewSession()
	sess.Upsert([]byte("a"), []byte("1"))
	s.BeginCommit(1)
	waitPersisted(t, s, 1)
	sess.Close()
	s.Close()
	r, err := Recover(dev, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.NewSession()
	defer rs.Close()
	if got := mustRead(t, rs, "a"); string(got) != "1" {
		t.Fatalf("got %q", got)
	}
}

// TestRecoverNoCheckpoint: a device nothing was sealed to holds no version
// above 0, so recovery to a later one fails, and recovery to 0 — a worker
// that crashed before its first commit — starts an empty store.
func TestRecoverNoCheckpoint(t *testing.T) {
	if _, err := Recover(storage.NewNull(), Config{}, 1); err == nil {
		t.Fatal("recover without checkpoint must fail")
	}
	s, err := Recover(storage.NewNull(), Config{}, 0)
	if err != nil {
		t.Fatalf("recover to 0 on an empty device: %v", err)
	}
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	if _, status, _ := sess.Read([]byte("a"), 0); status != StatusNotFound {
		t.Fatalf("read on the recovered empty store: status %v", status)
	}
}

func TestRecoverRespectsRolledBackRanges(t *testing.T) {
	dev := storage.NewNull()
	s := NewStore(dev, Config{})
	sess := s.NewSession()
	sess.Upsert([]byte("k"), []byte("v1"))
	s.BeginCommit(1)
	waitPersisted(t, s, 1)
	sess.Upsert([]byte("k"), []byte("v2")) // version 2
	s.Restore(1)                           // roll back version 2
	sess.Upsert([]byte("k"), []byte("v3")) // version 3
	s.BeginCommit(3)
	waitPersisted(t, s, 3)
	sess.Close()
	s.Close()
	// Recover to version 3: must see v3, not the rolled-back v2.
	r, err := Recover(dev, Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.NewSession()
	defer rs.Close()
	if got := mustRead(t, rs, "k"); string(got) != "v3" {
		t.Fatalf("recovered %q, want v3 (rolled-back v2 must not resurface)", got)
	}
}

func TestPendingReadFromEvictedRegion(t *testing.T) {
	dev := storage.NewNull()
	s := NewStore(dev, Config{BucketCount: 1 << 8, MemoryBudget: slabSize})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	// Write enough data to exceed one slab, checkpoint (flush), and evict.
	val := make([]byte, 1024)
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		copy(val, k)
		if _, err := sess.Upsert(k, val); err != nil {
			t.Fatal(err)
		}
	}
	s.BeginCommit(1)
	waitPersisted(t, s, 1)
	// Trigger eviction explicitly (runs as part of checkpoint completion).
	s.maybeEvict()
	if s.HeadAddress() == 0 {
		t.Skip("eviction did not advance head; memory budget too large for workload")
	}
	// Early keys should now require a PENDING device read. Their newest
	// records sit below head unless later writes re-copied them; key-00000
	// was written once, early.
	_, status, _ := sess.Read([]byte("key-00000"), 7)
	if status == StatusOK {
		t.Skip("record still in memory")
	}
	if status != StatusPending {
		t.Fatalf("expected PENDING, got %v", status)
	}
	comps := sess.CompletePending(true)
	if len(comps) != 1 {
		t.Fatalf("expected 1 completion, got %d", len(comps))
	}
	c := comps[0]
	if c.Serial != 7 || c.Status != StatusOK {
		t.Fatalf("completion %+v", c)
	}
	if string(c.Value[:9]) != "key-00000" {
		t.Fatalf("pending read returned wrong value prefix %q", c.Value[:9])
	}
}

func TestConcurrentSessions(t *testing.T) {
	s := newTestStore(t)
	const goroutines = 8
	const opsEach = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			for i := 0; i < opsEach; i++ {
				k := []byte(fmt.Sprintf("g%d-k%d", g, i%100))
				if i%3 == 0 {
					if _, status, _ := sess.Read(k, uint64(i)); status == StatusError {
						t.Errorf("read error")
					}
				} else {
					if _, err := sess.Upsert(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
						t.Error(err)
					}
				}
			}
			sess.CompletePending(true)
		}(g)
	}
	// Checkpoints run concurrently with the traffic.
	for v := core.Version(1); v <= 3; v++ {
		s.BeginCommit(s.CurrentVersion())
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
}

func TestConcurrentRMWCounter(t *testing.T) {
	s := newTestStore(t)
	const goroutines = 8
	const addsEach = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			for i := 0; i < addsEach; i++ {
				if status, _, _ := sess.RMW([]byte("counter"), 1, uint64(i)); status == StatusError {
					t.Error("rmw error")
				}
			}
			sess.CompletePending(true)
		}()
	}
	wg.Wait()
	sess := s.NewSession()
	defer sess.Close()
	got := mustRead(t, sess, "counter")
	if n := binary.LittleEndian.Uint64(got); n != goroutines*addsEach {
		t.Fatalf("counter = %d, want %d", n, goroutines*addsEach)
	}
}

// TestCheckpointCapturesPrefix verifies the CPR guarantee: a checkpoint of
// version v contains exactly the writes stamped <= v, even when writes race
// the checkpoint.
func TestCheckpointCapturesPrefix(t *testing.T) {
	dev := storage.NewNull()
	s := NewStore(dev, Config{BucketCount: 1 << 8})
	sess := s.NewSession()
	stop := make(chan struct{})
	versions := make(map[string]core.Version)
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("k%d", i)
			v, err := sess.Upsert([]byte(k), []byte(k))
			if err == nil {
				mu.Lock()
				versions[k] = v
				mu.Unlock()
			}
			i++
		}
	}()
	time.Sleep(5 * time.Millisecond)
	s.BeginCommit(1)
	waitPersisted(t, s, 1)
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	sess.Close()
	s.Close()

	r, err := Recover(dev, Config{BucketCount: 1 << 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.NewSession()
	defer rs.Close()
	mu.Lock()
	defer mu.Unlock()
	for k, v := range versions {
		_, status, _ := rs.Read([]byte(k), 0)
		if v <= 1 && status != StatusOK {
			t.Fatalf("op %s in version %d missing from checkpoint 1", k, v)
		}
		if v > 1 && status != StatusNotFound {
			t.Fatalf("op %s in version %d leaked into checkpoint 1", k, v)
		}
	}
}

func TestStateString(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseRest: "REST", PhaseInProgress: "IN_PROGRESS", PhaseWaitFlush: "WAIT_FLUSH",
		PhaseThrow: "THROW", PhasePurge: "PURGE", Phase(99): "UNKNOWN",
	} {
		if p.String() != want {
			t.Fatalf("%d -> %s, want %s", p, p.String(), want)
		}
	}
	for s, want := range map[Status]string{
		StatusOK: "OK", StatusNotFound: "NOT_FOUND", StatusPending: "PENDING", StatusError: "ERROR",
	} {
		if s.String() != want {
			t.Fatalf("%v", s)
		}
	}
}
