package integration

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/migration"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// TestLiveMigrationUnderLoad is the end-to-end re-route case: a session is
// mid-stream — continuously writing over real TCP connections — while half
// of worker 1's partitions migrate to worker 2. The session must ride the
// ownership flip without losing a single operation: its commit floor keeps
// rising (sampled for monotonicity throughout), every issued sequence number
// commits with no exceptions, and every key written on either side of the
// flip reads back afterwards.
func TestLiveMigrationUnderLoad(t *testing.T) {
	const parts = 32
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	var workers []*dfaster.Worker
	for i := 1; i <= 2; i++ {
		w, err := dfaster.NewWorker(dfaster.WorkerConfig{
			ID:                 core.WorkerID(i),
			ListenAddr:         "127.0.0.1:0",
			CheckpointInterval: 5 * time.Millisecond,
			Partitions:         parts,
			Device:             storage.NewNull(),
			KV:                 kv.Config{BucketCount: 1 << 10},
		}, meta)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		workers = append(workers, w)
	}
	for p := 0; p < parts; p++ {
		if err := workers[p%2].ClaimPartitions(uint64(p)); err != nil {
			t.Fatal(err)
		}
	}
	// A generous BadOwner budget lets the session ride out the freeze
	// window (frozen partitions answer BadOwner until the target claims).
	c, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions: parts, BatchSize: 4, Window: 64, Relaxed: true, RetryBadOwner: 512,
	}, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Commit-floor sampler: the committed prefix must never regress, not
	// even transiently, while ownership flips underneath the session.
	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	var floorRegressed atomic.Bool
	go func() {
		defer close(samplerDone)
		var floor uint64
		for {
			select {
			case <-samplerStop:
				return
			case <-time.After(time.Millisecond):
			}
			p, _ := c.Committed()
			if p < floor {
				floorRegressed.Store(true)
				return
			}
			floor = p
		}
	}()

	// Writer: the session keeps upserting while the migration runs. The
	// client is a session (single enqueueing goroutine), so the writer
	// goroutine owns it for the duration and the migration is coordinated
	// from the test goroutine, genuinely overlapping the stream.
	const keys = 150
	writerStop := make(chan struct{})
	writerDone := make(chan error, 1)
	var written atomic.Int64
	go func() {
		i := 0
		for {
			select {
			case <-writerStop:
				writerDone <- nil
				return
			default:
			}
			key := []byte(fmt.Sprintf("live-%d", i%keys))
			if err := c.Upsert(key, []byte(fmt.Sprintf("v-%d", i)), nil); err != nil {
				writerDone <- err
				return
			}
			i++
			written.Store(int64(i))
		}
	}()

	// Let the session cover the whole keyspace once, then migrate half of
	// worker 1's partitions mid-stream.
	for deadline := time.Now().Add(10 * time.Second); written.Load() < keys; {
		if time.Now().After(deadline) {
			t.Fatal("writer never covered the keyspace")
		}
		time.Sleep(time.Millisecond)
	}
	donor := workers[0]
	owned := donor.OwnedPartitions()
	if len(owned) < 2 {
		t.Fatalf("donor owns %d partitions", len(owned))
	}
	moving := owned[:len(owned)/2]
	if err := migration.Migrate(meta, donor, workers[1].ID(), moving, 10*time.Second); err != nil {
		t.Fatalf("live migration failed: %v", err)
	}
	for _, p := range moving {
		if !workers[1].Owns(p) {
			t.Fatalf("target does not own migrated partition %d", p)
		}
	}
	// Keep writing on the new topology for a moment, then stop.
	time.Sleep(20 * time.Millisecond)
	close(writerStop)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer failed mid-migration: %v", err)
	}

	// Every operation issued on either side of the flip commits: the
	// prefix reaches the last sequence number with no exceptions.
	if err := c.WaitCommitAll(20 * time.Second); err != nil {
		t.Fatalf("commit floor stalled across the flip: %v", err)
	}
	prefix, exc := c.Committed()
	if last := c.LastSeq(); prefix < last || len(exc) != 0 {
		t.Fatalf("committed prefix %d (exceptions %v), want >= %d with none", prefix, exc, last)
	}
	close(samplerStop)
	<-samplerDone
	if floorRegressed.Load() {
		t.Fatal("committed prefix regressed during migration")
	}

	// Every key written before or during the flip reads back (values raced
	// with the writer, so only presence is asserted), through whatever owner
	// the post-flip metadata names.
	var missing atomic.Int64
	for i := 0; i < keys; i++ {
		if err := c.Read([]byte(fmt.Sprintf("live-%d", i)), func(r wire.OpResult) {
			if r.Status != wire.StatusOK {
				missing.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := missing.Load(); n != 0 {
		t.Fatalf("%d keys unreadable after live migration", n)
	}
}
