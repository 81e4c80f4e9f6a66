package dfaster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/cluster"
	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

const testPartitions = 64

type testCluster struct {
	meta    *metadata.Store
	mgr     *cluster.Manager
	workers []*Worker
}

func newTestCluster(t *testing.T, n int, ckpt time.Duration) *testCluster {
	t.Helper()
	tc := &testCluster{meta: metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})}
	tc.mgr = cluster.NewManager(tc.meta)
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{
			ID:                 core.WorkerID(i + 1),
			ListenAddr:         "127.0.0.1:0",
			CheckpointInterval: ckpt,
			Partitions:         testPartitions,
			Device:             storage.NewNull(),
			KV:                 kv.Config{BucketCount: 1 << 10},
		}, tc.meta)
		if err != nil {
			t.Fatal(err)
		}
		tc.workers = append(tc.workers, w)
	}
	// Round-robin partition assignment.
	for p := 0; p < testPartitions; p++ {
		if err := tc.workers[p%n].ClaimPartitions(uint64(p)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, w := range tc.workers {
			w.Stop()
		}
	})
	return tc
}

func newTestClient(t *testing.T, tc *testCluster, b, w int) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		Partitions: testPartitions, BatchSize: b, Window: w, Relaxed: true,
	}, tc.meta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClientServerBasic(t *testing.T) {
	tc := newTestCluster(t, 2, 10*time.Millisecond)
	c := newTestClient(t, tc, 4, 64)
	var got atomic.Pointer[string]
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if err := c.Upsert(key, []byte(fmt.Sprintf("val-%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		i := i
		key := []byte(fmt.Sprintf("key-%d", i))
		err := c.Read(key, func(r wire.OpResult) {
			if r.Status != wire.StatusOK {
				t.Errorf("key-%d: status %d", i, r.Status)
				return
			}
			if i == 42 {
				s := string(r.Value)
				got.Store(&s)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if v := got.Load(); v == nil || *v != "val-42" {
		t.Fatalf("read callback: %v", got.Load())
	}
}

func TestClientReadMissing(t *testing.T) {
	tc := newTestCluster(t, 1, 0)
	c := newTestClient(t, tc, 1, 8)
	var status atomic.Uint32
	c.Read([]byte("nope"), func(r wire.OpResult) { status.Store(uint32(r.Status)) })
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if byte(status.Load()) != wire.StatusNotFound {
		t.Fatalf("status %d", status.Load())
	}
}

func TestClientDeleteAndRMW(t *testing.T) {
	tc := newTestCluster(t, 2, 10*time.Millisecond)
	c := newTestClient(t, tc, 1, 8)
	c.Upsert([]byte("k"), []byte("v"), nil)
	c.Delete([]byte("k"), nil)
	var st atomic.Uint32
	c.Read([]byte("k"), func(r wire.OpResult) { st.Store(uint32(r.Status)) })
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if byte(st.Load()) != wire.StatusNotFound {
		t.Fatalf("deleted key visible: %d", st.Load())
	}
	for i := 0; i < 10; i++ {
		c.RMW([]byte("ctr"), 3, nil)
	}
	var val atomic.Uint64
	c.Read([]byte("ctr"), func(r wire.OpResult) {
		if len(r.Value) >= 8 {
			var n uint64
			for i := 0; i < 8; i++ {
				n |= uint64(r.Value[i]) << (8 * i)
			}
			val.Store(n)
		}
	})
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if val.Load() != 30 {
		t.Fatalf("counter = %d, want 30", val.Load())
	}
}

func TestCommitProgress(t *testing.T) {
	tc := newTestCluster(t, 2, 5*time.Millisecond)
	c := newTestClient(t, tc, 8, 64)
	for i := 0; i < 64; i++ {
		if err := c.Upsert([]byte(fmt.Sprintf("k%d", i)), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	p, exc := c.Committed()
	if p < c.LastSeq() || len(exc) != 0 {
		t.Fatalf("prefix %d < %d (exc %v)", p, c.LastSeq(), exc)
	}
}

func TestCrossShardSessionDependency(t *testing.T) {
	// A session alternating between shards must still get a single
	// consistent committed prefix.
	tc := newTestCluster(t, 3, 5*time.Millisecond)
	c := newTestClient(t, tc, 1, 4)
	for i := 0; i < 30; i++ {
		if err := c.Upsert([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestFailureRecoveryEndToEnd(t *testing.T) {
	tc := newTestCluster(t, 2, 5*time.Millisecond)
	c := newTestClient(t, tc, 1, 4)
	// Committed work.
	for i := 0; i < 10; i++ {
		c.Upsert([]byte(fmt.Sprintf("c%d", i)), []byte("committed"), nil)
	}
	if err := c.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	committedSeq := c.LastSeq()
	wl0 := c.Session().Tracker().WorldLine()
	// Inject a failure (as §7.4: notify workers of a new world-line).
	if _, _, err := tc.mgr.OnFailure(); err != nil {
		t.Fatal(err)
	}
	// Keep operating until the client observes the failure: a SurvivalError,
	// or — when the session learns of the new world-line with nothing in
	// flight and everything committed — a silent, lossless switch.
	var surv *core.SurvivalError
	deadline := time.Now().Add(5 * time.Second)
	for surv == nil && c.Session().Tracker().WorldLine() == wl0 {
		if time.Now().After(deadline) {
			t.Fatal("client never observed the failure")
		}
		err := c.Upsert([]byte("probe"), []byte("x"), nil)
		if err == nil {
			err = c.Drain()
		}
		if err == nil {
			_, err = c.Session().RefreshCommit()
		}
		if err != nil && !errors.As(err, &surv) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if surv != nil && surv.SurvivingPrefix < committedSeq {
		t.Fatalf("committed prefix lost: survived %d < %d", surv.SurvivingPrefix, committedSeq)
	}
	if p, _ := c.Session().Committed(); p < committedSeq {
		t.Fatalf("committed prefix lost: prefix %d < %d", p, committedSeq)
	}
	// Acknowledge and continue.
	c.Acknowledge()
	if err := c.Upsert([]byte("after"), []byte("y"), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatalf("commits must resume after recovery: %v", err)
	}
}

func TestCoLocatedExecution(t *testing.T) {
	tc := newTestCluster(t, 2, 10*time.Millisecond)
	local := tc.workers[0]
	c, err := NewClient(ClientConfig{
		Partitions: testPartitions, BatchSize: 4, Window: 64, Relaxed: true,
		LocalWorker: local,
	}, tc.meta)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Find a key owned locally and one owned remotely.
	var localKey, remoteKey []byte
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if local.Owns(PartitionOf(k, testPartitions)) {
			if localKey == nil {
				localKey = k
			}
		} else if remoteKey == nil {
			remoteKey = k
		}
		if localKey != nil && remoteKey != nil {
			break
		}
	}
	var localStatus, remoteStatus atomic.Uint32
	localStatus.Store(99)
	remoteStatus.Store(99)
	// Local op completes synchronously — callback fires before return.
	if err := c.Upsert(localKey, []byte("local"), func(r wire.OpResult) {
		localStatus.Store(uint32(r.Status))
	}); err != nil {
		t.Fatal(err)
	}
	if byte(localStatus.Load()) != wire.StatusOK {
		t.Fatalf("local op did not complete synchronously: %d", localStatus.Load())
	}
	if err := c.Upsert(remoteKey, []byte("remote"), func(r wire.OpResult) {
		remoteStatus.Store(uint32(r.Status))
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if byte(remoteStatus.Load()) != wire.StatusOK {
		t.Fatalf("remote op failed: %d", remoteStatus.Load())
	}
	// Both are visible and commit together.
	if err := c.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionOfStable(t *testing.T) {
	// Same key always maps to the same partition, within range.
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		p := PartitionOf(k, testPartitions)
		if p >= testPartitions {
			t.Fatalf("partition %d out of range", p)
		}
		if p != PartitionOf(k, testPartitions) {
			t.Fatal("PartitionOf must be deterministic")
		}
	}
}

func TestWindowBackpressure(t *testing.T) {
	tc := newTestCluster(t, 1, 10*time.Millisecond)
	c := newTestClient(t, tc, 1, 4)
	// Enqueue far more than the window; must not deadlock and must all land.
	var done atomic.Int64
	for i := 0; i < 200; i++ {
		if err := c.Upsert([]byte(fmt.Sprintf("k%d", i)), []byte("v"),
			func(r wire.OpResult) { done.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if done.Load() != 200 {
		t.Fatalf("completed %d of 200", done.Load())
	}
}

// TestCutAdvancePushReachesIdleSession pins the push half of the event-driven
// commit plane: after the last batch drains, the client sends nothing — the
// committed prefix can only advance through pushed FrameCutAdvance frames
// folded in by the read loop (the client never polls the finder on its own).
func TestCutAdvancePushReachesIdleSession(t *testing.T) {
	tc := newTestCluster(t, 2, 5*time.Millisecond)
	c := newTestClient(t, tc, 1, 8)
	if err := c.Upsert([]byte("idle-key"), []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	want := c.LastSeq()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if p, _ := c.Committed(); p >= want {
			return
		}
		if time.Now().After(deadline) {
			p, exc := c.Committed()
			t.Fatalf("idle session never saw commit: prefix %d < %d (exc %v)", p, want, exc)
		}
		time.Sleep(time.Millisecond)
	}
}
