package integration

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/storage"
)

// TestStripedSessionRarelyFastForwards: a session that alternates between two
// shards carries each one's version to the other as its Vs, so whenever the
// shards sit a version apart the one behind must force a commit at admission
// before it may execute (the §3.2 progress rule). With commit rounds both
// shards close the same version within a wake-up of each other and the forced
// commit all but disappears: at most one admission in ten rounds pays for it
// (on the local-SSD device model the benchmark uses; measured here about 1 in
// 20 — an operation that reaches the other shard inside the wake-up a join
// takes — against 2 in 3 before, when each pump kept its own clock).
func TestStripedSessionRarelyFastForwards(t *testing.T) {
	if testing.Short() {
		t.Skip("runs for 2 s")
	}
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	reg := obs.NewRegistry()
	var workers []*dfaster.Worker
	for i := 0; i < 2; i++ {
		w, err := dfaster.NewWorker(dfaster.WorkerConfig{
			ID:                 core.WorkerID(i + 1),
			ListenAddr:         "127.0.0.1:0",
			CheckpointInterval: 100 * time.Millisecond,
			Partitions:         partitions,
			Device:             storage.NewSink("local-ssd", storage.LocalSSDProfile),
			KV:                 kv.Config{BucketCount: 1 << 10},
			Obs:                reg,
		}, meta)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		workers = append(workers, w)
	}
	for p := 0; p < partitions; p++ {
		if err := workers[p%2].ClaimPartitions(uint64(p)); err != nil {
			t.Fatal(err)
		}
	}
	// Keys by owner, so consecutive operations alternate between the shards.
	var keys [2][][]byte
	for i := 0; len(keys[0]) < 64 || len(keys[1]) < 64; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		w := int(dfaster.PartitionOf(k, partitions)) % 2
		keys[w] = append(keys[w], k)
	}

	c := newClient(t, meta)
	n := 0
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); n++ {
		if err := c.Upsert(keys[n%2][(n/2)%64], []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	var commits, fastForwards uint64
	for _, w := range workers {
		st := w.DPR().DebugState("test")
		commits += st.RoundsInitiated + st.RoundsJoined
		fastForwards += reg.Counter("dpr_worker_version_fast_forwards_total", "",
			obs.L("worker", strconv.FormatUint(uint64(w.ID()), 10))).Value()
	}
	rounds := commits / 2 // each shard closes each round
	t.Logf("%d operations, %d rounds, %d fast-forwards at admission", n, rounds, fastForwards)
	if rounds < 100 {
		t.Fatalf("only %d rounds in 2 s of continuous writes", rounds)
	}
	if fastForwards > rounds/10 {
		t.Fatalf("%d admissions forced a commit in %d rounds: the shards do not close versions together", fastForwards, rounds)
	}
}
