package queue_test

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"dpr/internal/cluster"
	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/queue"
	"dpr/internal/storage"
)

const qParts = 32

type qCluster struct {
	meta    *metadata.Store
	mgr     *cluster.Manager
	workers []*dfaster.Worker
}

func newQCluster(t *testing.T, shards int) *qCluster {
	t.Helper()
	c := &qCluster{meta: metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})}
	c.mgr = cluster.NewManager(c.meta)
	for i := 0; i < shards; i++ {
		w, err := dfaster.NewWorker(dfaster.WorkerConfig{
			ID:                 core.WorkerID(i + 1),
			ListenAddr:         "127.0.0.1:0",
			CheckpointInterval: 5 * time.Millisecond,
			Partitions:         qParts,
			Device:             storage.NewNull(),
			KV:                 kv.Config{BucketCount: 1 << 10},
		}, c.meta)
		if err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, w)
	}
	for p := 0; p < qParts; p++ {
		if err := c.workers[p%shards].ClaimPartitions(uint64(p)); err != nil {
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

func TestEnqueueDequeueOrder(t *testing.T) {
	c := newQCluster(t, 2)
	cfg := queue.Config{Partitions: qParts}
	prod, err := queue.NewProducer("orders", cfg, c.meta)
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	for i := 0; i < 20; i++ {
		slot, err := prod.Enqueue([]byte(fmt.Sprintf("msg-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if slot != uint64(i) {
			t.Fatalf("slot %d for message %d", slot, i)
		}
	}
	cons, err := queue.NewConsumer("orders", 0, cfg, c.meta)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	for i := 0; i < 20; i++ {
		msg, slot, err := cons.Poll(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if slot != uint64(i) || string(msg) != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("slot %d: %q", slot, msg)
		}
	}
	n, err := queue.Length("orders", cfg, c.meta)
	if err != nil || n != 20 {
		t.Fatalf("length %d (%v)", n, err)
	}
}

func TestConsumerSeesUncommittedEnqueues(t *testing.T) {
	// The point of DPR (§1 Example 2): downstream operators dequeue before
	// the enqueue commits. With a long checkpoint interval, the read must
	// succeed long before any commit happens.
	c := &qCluster{meta: metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})}
	w, err := dfaster.NewWorker(dfaster.WorkerConfig{
		ID: 1, ListenAddr: "127.0.0.1:0", CheckpointInterval: time.Hour,
		Partitions: qParts, Device: storage.NewNull(), KV: kv.Config{BucketCount: 1 << 8},
	}, c.meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	for p := 0; p < qParts; p++ {
		w.ClaimPartitions(uint64(p))
	}
	cfg := queue.Config{Partitions: qParts}
	prod, _ := queue.NewProducer("fast", cfg, c.meta)
	defer prod.Close()
	cons, _ := queue.NewConsumer("fast", 0, cfg, c.meta)
	defer cons.Close()

	start := time.Now()
	if _, err := prod.Enqueue([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	msg, _, err := cons.Poll(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "hello" {
		t.Fatalf("got %q", msg)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("dequeue should not wait for commit (checkpoints are hourly): %v", elapsed)
	}
}

func TestDurableConsumption(t *testing.T) {
	c := newQCluster(t, 2)
	cfg := queue.Config{Partitions: qParts}
	prod, _ := queue.NewProducer("durable", cfg, c.meta)
	defer prod.Close()
	cons, err := queue.NewConsumer("durable", 0, cfg, c.meta)
	if err != nil {
		t.Fatal(err)
	}
	cons.Durable = true
	defer cons.Close()
	if _, err := prod.Enqueue([]byte("precious")); err != nil {
		t.Fatal(err)
	}
	msg, _, err := cons.Poll(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "precious" {
		t.Fatalf("got %q", msg)
	}
	// Delivered durably: a failure right now must NOT lose the message.
	if _, _, err := c.mgr.OnFailure(); err != nil {
		t.Fatal(err)
	}
	cons2, _ := queue.NewConsumer("durable", 0, cfg, c.meta)
	defer cons2.Close()
	msg, _, err = cons2.Poll(10 * time.Second)
	if err != nil || string(msg) != "precious" {
		t.Fatalf("durably consumed message lost in failure: %q %v", msg, err)
	}
}

func TestQueueSurvivesProducerFailure(t *testing.T) {
	c := newQCluster(t, 2)
	cfg := queue.Config{Partitions: qParts}
	prod, _ := queue.NewProducer("wal", cfg, c.meta)
	defer prod.Close()
	for i := 0; i < 10; i++ {
		if _, err := prod.Enqueue([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := prod.WaitAllCommitted(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.mgr.OnFailure(); err != nil {
		t.Fatal(err)
	}
	// All committed messages survive the rollback.
	cons, _ := queue.NewConsumer("wal", 0, cfg, c.meta)
	defer cons.Close()
	for i := 0; i < 10; i++ {
		msg, _, err := cons.Poll(10 * time.Second)
		if err != nil || string(msg) != fmt.Sprintf("m%d", i) {
			t.Fatalf("slot %d: %q %v", i, msg, err)
		}
	}
	// The producer learns about the failure and can continue after ack.
	_, err := prod.Enqueue([]byte("post"))
	if err != nil {
		var surv *core.SurvivalError
		if !errors.As(err, &surv) && !errors.Is(err, core.ErrRolledBack) {
			t.Fatalf("unexpected enqueue error: %v", err)
		}
		prod.Acknowledge()
		if _, err := prod.Enqueue([]byte("post")); err != nil {
			t.Fatalf("enqueue after acknowledge: %v", err)
		}
	}
}

func TestPollTimeout(t *testing.T) {
	c := newQCluster(t, 1)
	cfg := queue.Config{Partitions: qParts}
	cons, _ := queue.NewConsumer("empty", 0, cfg, c.meta)
	defer cons.Close()
	if _, _, err := cons.Poll(50 * time.Millisecond); !errors.Is(err, queue.ErrTimeout) {
		t.Fatalf("expected timeout, got %v", err)
	}
}

func TestMultipleProducersUniqueSlots(t *testing.T) {
	c := newQCluster(t, 2)
	cfg := queue.Config{Partitions: qParts}
	const producers = 4
	const each = 25
	slotCh := make(chan uint64, producers*each)
	errCh := make(chan error, producers)
	for g := 0; g < producers; g++ {
		go func(g int) {
			prod, err := queue.NewProducer("shared", cfg, c.meta)
			if err != nil {
				errCh <- err
				return
			}
			defer prod.Close()
			for i := 0; i < each; i++ {
				slot, err := prod.Enqueue([]byte(fmt.Sprintf("p%d-%d", g, i)))
				if err != nil {
					errCh <- err
					return
				}
				slotCh <- slot
			}
			errCh <- nil
		}(g)
	}
	for g := 0; g < producers; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	close(slotCh)
	seen := map[uint64]bool{}
	for slot := range slotCh {
		if seen[slot] {
			t.Fatalf("slot %d assigned twice", slot)
		}
		seen[slot] = true
	}
	if len(seen) != producers*each {
		t.Fatalf("%d unique slots, want %d", len(seen), producers*each)
	}
}

func TestClosedHandlesError(t *testing.T) {
	c := newQCluster(t, 1)
	cfg := queue.Config{Partitions: qParts}
	prod, _ := queue.NewProducer("x", cfg, c.meta)
	prod.Close()
	if _, err := prod.Enqueue([]byte("m")); !errors.Is(err, queue.ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
	cons, _ := queue.NewConsumer("x", 0, cfg, c.meta)
	cons.Close()
	if _, _, err := cons.Poll(time.Millisecond); !errors.Is(err, queue.ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

func TestLengthEmptyQueue(t *testing.T) {
	c := newQCluster(t, 1)
	n, err := queue.Length("never-used", queue.Config{Partitions: qParts}, c.meta)
	if err != nil || n != 0 {
		t.Fatalf("empty queue length %d (%v)", n, err)
	}
}

func TestConsumerPosition(t *testing.T) {
	c := newQCluster(t, 1)
	cfg := queue.Config{Partitions: qParts}
	prod, _ := queue.NewProducer("pos", cfg, c.meta)
	defer prod.Close()
	prod.Enqueue([]byte("a"))
	prod.Enqueue([]byte("b"))
	cons, _ := queue.NewConsumer("pos", 1, cfg, c.meta) // start at slot 1
	defer cons.Close()
	if cons.Position() != 1 {
		t.Fatalf("position %d", cons.Position())
	}
	msg, slot, err := cons.Poll(5 * time.Second)
	if err != nil || slot != 1 || string(msg) != "b" {
		t.Fatalf("%q %d %v", msg, slot, err)
	}
	if cons.Position() != 2 {
		t.Fatalf("position %d after poll", cons.Position())
	}
}

// TestUndeliveredMessageFailsWaitAllCommitted: the slot claim lands on a
// reachable shard, the message itself is for one that cannot be reached.
// Enqueue returns its slot — the write is in the background by then — so
// WaitAllCommitted is what must say the message is not in the queue.
func TestUndeliveredMessageFailsWaitAllCommitted(t *testing.T) {
	c := newQCluster(t, 2)
	owner := func(key string) int { return int(dfaster.PartitionOf([]byte(key), qParts))%2 + 1 }
	name := ""
	for i := 0; name == ""; i++ { // head counter on shard 1, slot 0 on shard 2
		if n := fmt.Sprintf("q%d", i); owner("q/"+n+"/head") == 1 && owner(fmt.Sprintf("q/%s/s/%016d", n, 0)) == 2 {
			name = n
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // nobody listens here any more
	if err := c.meta.RegisterWorker(2, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	prod, err := queue.NewProducer(name, queue.Config{Partitions: qParts}, c.meta)
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	if slot, err := prod.Enqueue([]byte("undelivered")); err != nil || slot != 0 {
		t.Fatalf("Enqueue = %d, %v", slot, err)
	}
	var lost *core.AbandonedError
	if err := prod.WaitAllCommitted(10 * time.Second); !errors.As(err, &lost) || lost.Seq != 2 {
		t.Fatalf("WaitAllCommitted = %v, want an AbandonedError at seq 2 (the message; seq 1 claimed the slot)", err)
	}
}
