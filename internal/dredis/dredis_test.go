package dredis_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/cluster"
	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/dredis"
	"dpr/internal/metadata"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

const parts = 32

type drCluster struct {
	meta    *metadata.Store
	mgr     *cluster.Manager
	workers []*dredis.Worker
}

func newDRCluster(t *testing.T, n int, ckpt time.Duration) *drCluster {
	t.Helper()
	c := &drCluster{meta: metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})}
	c.mgr = cluster.NewManager(c.meta)
	for i := 0; i < n; i++ {
		w, err := dredis.NewWorker(dredis.WorkerConfig{
			ID:                 core.WorkerID(i + 1),
			ListenAddr:         "127.0.0.1:0",
			CheckpointInterval: ckpt,
			Device:             storage.NewNull(),
		}, c.meta)
		if err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, w)
	}
	for p := 0; p < parts; p++ {
		if err := c.meta.SetOwner(uint64(p), c.workers[p%n].ID()); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, w := range c.workers {
			w.Stop()
		}
	})
	return c
}

func newDRClient(t *testing.T, c *drCluster, b, w int) *dfaster.Client {
	t.Helper()
	cl, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions: parts, BatchSize: b, Window: w, Relaxed: true,
	}, c.meta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestDRedisBasicOps(t *testing.T) {
	c := newDRCluster(t, 2, 10*time.Millisecond)
	cl := newDRClient(t, c, 4, 64)
	for i := 0; i < 50; i++ {
		if err := cl.Upsert([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	var ok atomic.Int64
	for i := 0; i < 50; i++ {
		want := fmt.Sprintf("v%d", i)
		cl.Read([]byte(fmt.Sprintf("k%d", i)), func(r wire.OpResult) {
			if r.Status == wire.StatusOK && string(r.Value) == want {
				ok.Add(1)
			}
		})
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if ok.Load() != 50 {
		t.Fatalf("%d/50 reads correct", ok.Load())
	}
}

func TestDRedisCommit(t *testing.T) {
	c := newDRCluster(t, 2, 5*time.Millisecond)
	cl := newDRClient(t, c, 2, 16)
	for i := 0; i < 20; i++ {
		if err := cl.Upsert([]byte(fmt.Sprintf("k%d", i)), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	p, exc := cl.Committed()
	if p < cl.LastSeq() || len(exc) != 0 {
		t.Fatalf("prefix %d < %d exc=%v", p, cl.LastSeq(), exc)
	}
}

func TestDRedisFailureRecovery(t *testing.T) {
	c := newDRCluster(t, 2, 5*time.Millisecond)
	cl := newDRClient(t, c, 1, 4)
	for i := 0; i < 10; i++ {
		cl.Upsert([]byte(fmt.Sprintf("c%d", i)), []byte("committed"), nil)
	}
	if err := cl.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	committed := cl.LastSeq()
	// Uncommitted write, then failure.
	cl.Upsert([]byte("lost"), []byte("x"), nil)
	cl.Drain()
	if _, _, err := c.mgr.OnFailure(); err != nil {
		t.Fatal(err)
	}
	var surv *core.SurvivalError
	deadline := time.Now().Add(5 * time.Second)
	for surv == nil {
		if time.Now().After(deadline) {
			t.Fatal("client never observed failure")
		}
		_, err := cl.Session().RefreshCommit()
		if err != nil && !errors.As(err, &surv) {
			t.Fatalf("unexpected: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if surv.SurvivingPrefix < committed {
		t.Fatalf("committed prefix lost: %d < %d", surv.SurvivingPrefix, committed)
	}
	cl.Acknowledge()
	// The unmodified Redis restarted from its snapshot: committed data is
	// there, uncommitted is gone.
	cl2 := newDRClient(t, c, 1, 4)
	var gotCommitted, gotLost atomic.Uint32
	gotLost.Store(99)
	cl2.Read([]byte("c3"), func(r wire.OpResult) { gotCommitted.Store(uint32(r.Status)) })
	cl2.Read([]byte("lost"), func(r wire.OpResult) { gotLost.Store(uint32(r.Status)) })
	if err := cl2.Drain(); err != nil {
		t.Fatal(err)
	}
	if byte(gotCommitted.Load()) != wire.StatusOK {
		t.Fatalf("committed key missing after restart: %d", gotCommitted.Load())
	}
	if byte(gotLost.Load()) != wire.StatusNotFound {
		t.Fatalf("uncommitted key survived restart: %d", gotLost.Load())
	}
	// And the system keeps serving + committing.
	cl2.Upsert([]byte("post"), []byte("y"), nil)
	if err := cl2.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDRedisVersionFastForward(t *testing.T) {
	// The progress rule through the unmodified-store wrapper: a batch
	// carrying a high Vs forces the D-Redis state object to BGSAVE until
	// its version catches up (§3.2 via §6).
	c := newDRCluster(t, 2, time.Hour) // no automatic checkpoints
	cl := newDRClient(t, c, 1, 4)
	// Push worker 1's version up via its libDPR surface.
	so := c.workers[0].DPR().StateObject()
	if err := so.BeginCommit(5); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for so.CurrentVersion() < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("version stuck at %d", so.CurrentVersion())
		}
		time.Sleep(time.Millisecond)
	}
	// A session that saw worker 1's version then writes to worker 2:
	// worker 2 must fast-forward.
	var wrote int
	for i := 0; wrote < 40; i++ {
		key := []byte(fmt.Sprintf("ff-%d", i))
		if err := cl.Upsert(key, []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
		wrote++
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if v := c.workers[1].DPR().StateObject().CurrentVersion(); v < 6 {
		t.Fatalf("worker 2 did not fast-forward: version %d", v)
	}
}

func TestDRedisRMWCounter(t *testing.T) {
	c := newDRCluster(t, 1, 10*time.Millisecond)
	cl := newDRClient(t, c, 1, 8)
	for i := 0; i < 10; i++ {
		if err := cl.RMW([]byte("ctr"), 5, nil); err != nil {
			t.Fatal(err)
		}
	}
	var val atomic.Uint64
	cl.Read([]byte("ctr"), func(r wire.OpResult) {
		if len(r.Value) >= 8 {
			var n uint64
			for i := 0; i < 8; i++ {
				n |= uint64(r.Value[i]) << (8 * i)
			}
			val.Store(n)
		}
	})
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if val.Load() != 50 {
		t.Fatalf("counter %d, want 50", val.Load())
	}
}

// TestDRedisCutAdvancePush mirrors dfaster's idle-session push test: with no
// further requests after the drain, commit progress can only reach the
// session through pushed cut-advance frames.
func TestDRedisCutAdvancePush(t *testing.T) {
	c := newDRCluster(t, 1, 5*time.Millisecond)
	cl := newDRClient(t, c, 1, 8)
	if err := cl.Upsert([]byte("idle-key"), []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	want := cl.LastSeq()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if p, _ := cl.Committed(); p >= want {
			return
		}
		if time.Now().After(deadline) {
			p, exc := cl.Committed()
			t.Fatalf("idle session never saw commit: prefix %d < %d (exc %v)", p, want, exc)
		}
		time.Sleep(time.Millisecond)
	}
}
