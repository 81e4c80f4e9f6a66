package integration

import (
	"fmt"
	"testing"
	"time"

	"dpr/internal/cluster"
	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// TestCompactThenCrossShardRollback is the directed case for "log garbage is
// what the committed cut has passed". Worker A holds k=v1, committed. Worker
// B's device starts failing, so nothing B executes can commit; the session
// writes x on B and then k=v2 on A, which therefore depends on B's
// uncommittable version: A persists k=v2 but the cut never covers it. A's log
// is compacted in that state — k@v1 is superseded but still the value the cut
// vouches for — and then B "fails": the recovery rolls A back below k@v2. The
// read-back must follow the fate model: k=v1 was committed and survives,
// k=v2 was not and is gone. A compactor that keeps only a key's newest record
// loses v1 here.
func TestCompactThenCrossShardRollback(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	mgr := cluster.NewManager(meta)
	devB := storage.NewFlaky(storage.NewNull())
	devs := []storage.Device{storage.NewNull(), devB}
	var workers []*dfaster.Worker
	for i, dev := range devs {
		w, err := dfaster.NewWorker(dfaster.WorkerConfig{
			ID:                 core.WorkerID(i + 1),
			ListenAddr:         "127.0.0.1:0",
			CheckpointInterval: 5 * time.Millisecond,
			Partitions:         partitions,
			Device:             dev,
			KV:                 kv.Config{BucketCount: 1 << 10},
		}, meta)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		workers = append(workers, w)
	}
	a := workers[0]
	for p := 0; p < partitions; p++ {
		if err := workers[p%2].ClaimPartitions(uint64(p)); err != nil {
			t.Fatal(err)
		}
	}
	keyOn := func(w int, name string) []byte {
		for i := 0; ; i++ {
			k := []byte(fmt.Sprintf("%s-%d", name, i))
			if int(dfaster.PartitionOf(k, partitions))%2 == w {
				return k
			}
		}
	}
	k, cold, x := keyOn(0, "k"), keyOn(0, "cold"), keyOn(1, "x")

	c := newClient(t, meta)
	// More than one committed key on A, so the compaction below has something
	// it may move as well as something it must leave in place.
	if err := c.Upsert(cold, []byte("cold"), nil); err != nil {
		t.Fatal(err)
	}
	var v1Version core.Version
	if err := c.Upsert(k, []byte("v1"), func(r wire.OpResult) { v1Version = r.Version }); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	seqV1 := c.LastSeq()
	// A's own view of the cut must have passed k@v1: that is what its
	// compactor is held to.
	waitFor(t, "worker A's cut view to cover k=v1", func() bool {
		return a.DPR().CurrentCut().Get(a.ID()) >= v1Version
	})

	// From here on nothing B executes can become durable.
	devB.FailWrites(true)
	if err := c.Upsert(x, []byte("doomed"), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	var v2Version core.Version
	if err := c.Upsert(k, []byte("v2"), func(r wire.OpResult) { v2Version = r.Version }); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	seqV2 := c.LastSeq()
	// A seals k@v2 locally (so both records of k sit in its read-only,
	// compactable log), but the cut cannot move past B's dead version.
	waitFor(t, "worker A to persist k=v2", func() bool {
		return a.Store().PersistedVersion() >= v2Version
	})
	if got := a.DPR().CurrentCut().Get(a.ID()); got >= v2Version {
		t.Fatalf("cut covers k=v2 (A at %d, v2 in %d) although it depends on a version B cannot persist", got, v2Version)
	}

	if _, _, err := a.Store().Compact(a.Store().TailAddress()); err != nil {
		t.Fatal(err)
	}
	if a.Store().BeginAddress() == 0 {
		t.Fatal("nothing compacted on A: the committed cold key should have moved")
	}

	// B fails; everyone rolls back to the cut.
	devB.FailWrites(false)
	rollbacks := a.Store().Rollbacks()
	_, cut, err := mgr.OnFailure()
	if err != nil {
		t.Fatal(err)
	}
	if pos := cut.Get(a.ID()); pos >= v2Version || pos < v1Version {
		t.Fatalf("recovery cut puts A at %d; want at or above k=v1 (%d) and below k=v2 (%d)", pos, v1Version, v2Version)
	}
	if a.Store().Rollbacks() == rollbacks {
		t.Fatal("worker A did not roll back")
	}

	// The session's view: v1 committed, v2 lost.
	c.Session().RefreshCommit() // surfaces the failure; the error is the point
	c.Acknowledge()
	if prefix, _ := c.Committed(); prefix < seqV1 || prefix >= seqV2 {
		t.Fatalf("committed prefix %d; want k=v1 (seq %d) in and k=v2 (seq %d) out", prefix, seqV1, seqV2)
	}
	// The store's view must agree with it.
	var got string
	var status byte
	if err := c.Read(k, func(r wire.OpResult) { got, status = string(r.Value), r.Status }); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if status != wire.StatusOK || got != "v1" {
		t.Fatalf("k reads %q (status %d) after compact + rollback; the committed value is v1", got, status)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
