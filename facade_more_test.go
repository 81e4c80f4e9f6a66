package dpr_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dpr"
)

func TestFacadeAccessors(t *testing.T) {
	c, err := dpr.NewCluster(dpr.ClusterConfig{Shards: 3, CheckpointInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Shards() != 3 {
		t.Fatalf("shards %d", c.Shards())
	}
	for i := 0; i < 3; i++ {
		if c.Worker(i) == nil || c.Worker(i).Addr() == "" {
			t.Fatalf("worker %d not serving", i)
		}
	}
	if c.Metadata() == nil {
		t.Fatal("metadata accessor")
	}
}

func TestFacadeStrictSession(t *testing.T) {
	c, err := dpr.NewCluster(dpr.ClusterConfig{Shards: 2, CheckpointInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession(dpr.SessionConfig{BatchSize: 1, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitAllCommitted(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	p, exc := s.Committed()
	if p != 10 || len(exc) != 0 {
		t.Fatalf("strict prefix %d exc %v", p, exc)
	}
}

// TestFacadeManyConcurrentSessions drives the full stack from many session
// goroutines simultaneously — the deployment shape of the paper's Figure 10.
func TestFacadeManyConcurrentSessions(t *testing.T) {
	c, err := dpr.NewCluster(dpr.ClusterConfig{Shards: 2, CheckpointInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sessions = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := c.NewSession(dpr.SessionConfig{BatchSize: 8})
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			for i := 0; i < 100; i++ {
				if err := s.Put([]byte(fmt.Sprintf("s%d-k%d", g, i)), []byte("v")); err != nil {
					errs <- err
					return
				}
			}
			if err := s.WaitAllCommitted(15 * time.Second); err != nil {
				errs <- err
				return
			}
			val, found, err := s.Get([]byte(fmt.Sprintf("s%d-k%d", g, 42)))
			if err != nil || !found || string(val) != "v" {
				errs <- fmt.Errorf("session %d readback: %q %v %v", g, val, found, err)
				return
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	for g := 0; g < sessions; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeMemoryBudget(t *testing.T) {
	// A tight memory budget forces eviction; reads of evicted data resolve
	// via the PENDING path transparently through the facade.
	c, err := dpr.NewCluster(dpr.ClusterConfig{
		Shards:               1,
		CheckpointInterval:   10 * time.Millisecond,
		MemoryBudgetPerShard: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, _ := c.NewSession(dpr.SessionConfig{BatchSize: 16})
	defer s.Close()
	big := make([]byte, 2048)
	for i := 0; i < 2000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), big); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitAllCommitted(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Early keys may be evicted; reads must still succeed.
	for _, i := range []int{0, 1, 1999} {
		val, found, err := s.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if err != nil || !found || len(val) != len(big) {
			t.Fatalf("key %d: found=%v err=%v len=%d", i, found, err, len(val))
		}
	}
}

// TestUnreachableShardFailsWaitAllCommitted: a Put to a shard that cannot be
// reached returns nil, like every Put — it is buffered, then re-driven in the
// background. WaitAllCommitted must not call it durable.
func TestUnreachableShardFailsWaitAllCommitted(t *testing.T) {
	c, err := dpr.NewCluster(dpr.ClusterConfig{CheckpointInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession(dpr.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // nobody listens here any more
	if err := c.Metadata().RegisterWorker(1, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var lost *dpr.AbandonedError
	if err := s.WaitAllCommitted(10 * time.Second); !errors.As(err, &lost) || lost.Seq != 1 {
		t.Fatalf("WaitAllCommitted = %v, want an AbandonedError at seq 1", err)
	}
	// The shard is back: the write is made again, and this time it is durable.
	if err := c.Metadata().RegisterWorker(1, c.Worker(0).Addr()); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitAllCommitted(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p, exc := s.Committed(); p != 2 || len(exc) != 1 || exc[0] != 1 {
		t.Fatalf("prefix %d exceptions %v, want 2 and [1]", p, exc)
	}
}
