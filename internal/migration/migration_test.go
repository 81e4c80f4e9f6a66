package migration_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/cluster"
	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/migration"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

const testPartitions = 64

type testCluster struct {
	meta    *metadata.Store
	hook    *hookedMeta // what the workers are built on: meta, with two injection points
	mgr     *cluster.Manager
	workers []*dfaster.Worker
	stopped map[core.WorkerID]bool
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{
		meta:    metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate}),
		stopped: make(map[core.WorkerID]bool),
	}
	tc.hook = &hookedMeta{Store: tc.meta}
	tc.mgr = cluster.NewManager(tc.meta)
	for i := 0; i < n; i++ {
		tc.addWorker(t, core.WorkerID(i+1))
	}
	for p := 0; p < testPartitions; p++ {
		if err := tc.workers[p%n].ClaimPartitions(uint64(p)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, w := range tc.workers {
			if !tc.stopped[w.ID()] {
				w.Stop()
			}
		}
	})
	return tc
}

func (tc *testCluster) addWorker(t *testing.T, id core.WorkerID) *dfaster.Worker {
	t.Helper()
	w, err := dfaster.NewWorker(dfaster.WorkerConfig{
		ID:                 id,
		ListenAddr:         "127.0.0.1:0",
		CheckpointInterval: 5 * time.Millisecond,
		Partitions:         testPartitions,
		Device:             storage.NewNull(),
		KV:                 kv.Config{BucketCount: 1 << 10},
	}, tc.hook)
	if err != nil {
		t.Fatal(err)
	}
	tc.workers = append(tc.workers, w)
	return w
}

// hookedMeta is the metadata store with the two calls of a migration a test
// can fail: the coordinator's Members and the target's CompleteMigrate. Both
// hooks are nil unless a test arms them.
type hookedMeta struct {
	*metadata.Store
	mu       sync.Mutex
	members  func(map[core.WorkerID]string) (map[core.WorkerID]string, error)
	complete func() error // runs before the store's CompleteMigrate; an error replaces it
}

func (h *hookedMeta) arm(members func(map[core.WorkerID]string) (map[core.WorkerID]string, error), complete func() error) {
	h.mu.Lock()
	h.members, h.complete = members, complete
	h.mu.Unlock()
}

func (h *hookedMeta) Members() (map[core.WorkerID]string, error) {
	m, err := h.Store.Members()
	h.mu.Lock()
	hook := h.members
	h.mu.Unlock()
	if err != nil || hook == nil {
		return m, err
	}
	return hook(m)
}

func (h *hookedMeta) CompleteMigrate(id uint64) error {
	h.mu.Lock()
	hook := h.complete
	h.mu.Unlock()
	if hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	return h.Store.CompleteMigrate(id)
}

func newTestClient(t *testing.T, tc *testCluster) *dfaster.Client {
	t.Helper()
	c, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions: testPartitions, BatchSize: 4, Window: 64, Relaxed: true,
	}, tc.meta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func writeAndCommit(t *testing.T, c *dfaster.Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Upsert([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("val-%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, c *dfaster.Client, n int) {
	t.Helper()
	var bad atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		want := fmt.Sprintf("val-%d", i)
		err := c.Read([]byte(fmt.Sprintf("key-%d", i)), func(r wire.OpResult) {
			if r.Status != wire.StatusOK || string(r.Value) != want {
				bad.Add(1)
				t.Errorf("key-%d: status %d value %q (want %q)", i, r.Status, r.Value, want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d of %d keys wrong after migration", bad.Load(), n)
	}
}

// TestMigrateMovesDataAndOwnership: a full handover of one worker's
// partitions moves the committed state, flips ownership, retires the
// migration record, and live sessions with stale owner caches are
// redirected and keep operating.
func TestMigrateMovesDataAndOwnership(t *testing.T) {
	tc := newTestCluster(t, 2)
	c := newTestClient(t, tc)
	const n = 300
	writeAndCommit(t, c, n)

	donor, target := tc.workers[0], tc.workers[1]
	parts := donor.OwnedPartitions()
	if len(parts) == 0 {
		t.Fatal("donor owns nothing")
	}
	if err := migration.Migrate(tc.meta, donor, target.ID(), parts, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if donor.Owns(p) {
			t.Fatalf("donor still owns partition %d", p)
		}
		if !target.Owns(p) {
			t.Fatalf("target does not own partition %d", p)
		}
		if owner, err := tc.meta.OwnerOf(p); err != nil || owner != target.ID() {
			t.Fatalf("metadata owner of %d: %d %v", p, owner, err)
		}
	}
	if migs, _ := tc.meta.Migrations(); len(migs) != 0 {
		t.Fatalf("migration record leaked: %v", migs)
	}

	// The client's owner cache still points at the donor for the moved
	// partitions. A write routed by it is refused there and lands on the new
	// owner; every read below exercises the same ErrCodeMoved redirect.
	moved := make(map[uint64]bool, len(parts))
	for _, p := range parts {
		moved[p] = true
	}
	var status atomic.Uint32
	status.Store(99)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if !moved[dfaster.PartitionOf(key, testPartitions)] {
			continue
		}
		err := c.Upsert(key, []byte(fmt.Sprintf("val-%d", i)), func(r wire.OpResult) { status.Store(uint32(r.Status)) })
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if byte(status.Load()) != wire.StatusOK {
		t.Fatalf("write through a stale owner cache: status %d", status.Load())
	}
	readAll(t, c, n)

	// The session keeps committing across the flip.
	for i := 0; i < 50; i++ {
		if err := c.Upsert([]byte(fmt.Sprintf("post-%d", i)), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatalf("commits must resume after migration: %v", err)
	}
}

// TestMigrateAbortRestoresDonor: when the donor cannot reach the target,
// the coordinator aborts, donor ownership is restored, the registry is
// clean, and the cluster keeps serving.
func TestMigrateAbortRestoresDonor(t *testing.T) {
	tc := newTestCluster(t, 2)
	c := newTestClient(t, tc)
	writeAndCommit(t, c, 100)

	// A member that exists in metadata but listens nowhere.
	if err := tc.meta.Join(9, "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	donor := tc.workers[0]
	parts := donor.OwnedPartitions()
	err := migration.Migrate(tc.meta, donor, 9, parts, 2*time.Second)
	if err == nil {
		t.Fatal("migration to an unreachable target must fail")
	}
	for _, p := range parts {
		if !donor.Owns(p) {
			t.Fatalf("donor lost partition %d on aborted migration", p)
		}
	}
	if migs, _ := tc.meta.Migrations(); len(migs) != 0 {
		t.Fatalf("aborted migration leaked a record: %v", migs)
	}
	readAll(t, c, 100)
}

// TestMigrateLeavesNoRecord: whatever step of a handover fails, Migrate's one
// deferred resolver leaves no migration record behind (a record left
// Preparing wedges its partitions: nothing serves them and no later
// BeginMigrate can supersede it), every partition has exactly one owner, and
// the donor serves what it re-claimed.
func TestMigrateLeavesNoRecord(t *testing.T) {
	injected := errors.New("injected")
	readdress := func(to core.WorkerID, addr string) func(map[core.WorkerID]string) (map[core.WorkerID]string, error) {
		return func(m map[core.WorkerID]string) (map[core.WorkerID]string, error) {
			out := make(map[core.WorkerID]string, len(m))
			for w, a := range m {
				out[w] = a
			}
			out[to] = addr
			return out, nil
		}
	}
	cases := []struct {
		name string
		arm  func(tc *testCluster, to core.WorkerID)
	}{
		{"Members errors", func(tc *testCluster, to core.WorkerID) {
			tc.hook.arm(func(map[core.WorkerID]string) (map[core.WorkerID]string, error) { return nil, injected }, nil)
		}},
		{"target has no address", func(tc *testCluster, to core.WorkerID) {
			tc.hook.arm(readdress(to, ""), nil)
		}},
		{"handover fails before the stream", func(tc *testCluster, to core.WorkerID) {
			tc.hook.arm(readdress(to, "127.0.0.1:1"), nil) // nothing listens there: the dial fails
		}},
		{"handover fails after the target imported", func(tc *testCluster, to core.WorkerID) {
			// The target has ingested and sealed the stream and fails at its
			// commit point: it tombstones the import and rejects.
			tc.hook.arm(nil, func() error { return injected })
		}},
		{"world-line bump mid-handover", func(tc *testCluster, to core.WorkerID) {
			// A recovery round between the import and the commit point clears
			// the registry, so the target's CompleteMigrate finds no record and
			// the coordinator's abort removes nothing: ownership decides.
			tc.hook.arm(nil, func() error {
				_, _, err := tc.mgr.OnFailure()
				return err
			})
		}},
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			tc := newTestCluster(t, 2)
			const n = 100
			writeAndCommit(t, newTestClient(t, tc), n)
			donor, target := tc.workers[0], tc.workers[1]
			parts := donor.OwnedPartitions()

			tcase.arm(tc, target.ID())
			err := migration.Migrate(tc.hook, donor, target.ID(), parts, 5*time.Second)
			tc.hook.arm(nil, nil)
			if err == nil {
				t.Fatal("the injected failure did not fail the migration")
			}
			t.Logf("migrate: %v", err)

			if migs, _ := tc.meta.Migrations(); len(migs) != 0 {
				t.Fatalf("failed migration left a record: %v", migs)
			}
			for p := uint64(0); p < testPartitions; p++ {
				owner, err := tc.meta.OwnerOf(p)
				if err != nil {
					t.Fatalf("partition %d: %v", p, err)
				}
				for _, w := range tc.workers {
					if w.Owns(p) != (w.ID() == owner) {
						t.Errorf("partition %d: metadata says worker %d owns it, worker %d says Owns = %v", p, owner, w.ID(), w.Owns(p))
					}
				}
			}
			for _, p := range parts {
				if !donor.Owns(p) {
					t.Errorf("donor did not re-claim partition %d", p)
				}
			}
			// A session opened after the failure (the bump case rolled the
			// first one's world-line back) reads every key, the donor's
			// re-claimed partitions included, and commits.
			c := newTestClient(t, tc)
			readAll(t, c, n)
			writeAndCommit(t, c, n)
		})
	}
}

// TestJoinRebalanceDrain: a worker joins a live 2-node cluster under a
// session, receives an even share via Rebalance, then one original member
// drains into the survivors and leaves. Data and commit progress survive
// both reconfigurations.
func TestJoinRebalanceDrain(t *testing.T) {
	tc := newTestCluster(t, 2)
	c := newTestClient(t, tc)
	const n = 200
	writeAndCommit(t, c, n)

	joiner := tc.addWorker(t, 3) // NewWorker registers: this is the Join
	if err := migration.Rebalance(tc.meta, tc.workers[:2], joiner.ID(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(joiner.OwnedPartitions()) == 0 {
		t.Fatal("joiner received no partitions")
	}
	readAll(t, c, n)

	// Drain the first original member into the two survivors.
	leaver := tc.workers[0]
	if err := migration.Drain(tc.meta, leaver, []core.WorkerID{2, 3}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	tc.stopped[leaver.ID()] = true
	tc.mgr.Detach(leaver.ID())
	if got := leaver.OwnedPartitions(); len(got) != 0 {
		t.Fatalf("drained worker still owns %v", got)
	}
	members, err := tc.meta.Members()
	if err != nil {
		t.Fatal(err)
	}
	if _, still := members[leaver.ID()]; still {
		t.Fatalf("drained worker still a member: %v", members)
	}
	readAll(t, c, n)
	for i := 0; i < 50; i++ {
		if err := c.Upsert([]byte(fmt.Sprintf("post-%d", i)), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatalf("commits must resume after drain: %v", err)
	}
}
