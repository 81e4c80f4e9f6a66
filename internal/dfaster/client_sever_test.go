package dfaster

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/metadata"
	"dpr/internal/wire"
)

// severingServer accepts connections, swallows a little of what arrives and
// then resets the connection without ever answering: every batch sent to it
// is stranded, and the resets land while the client is still writing.
func severingServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seed := int64(1); ; seed++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				buf := make([]byte, 1+rng.Intn(96))
				conn.SetReadDeadline(time.Now().Add(time.Duration(rng.Intn(300)) * time.Microsecond))
				conn.Read(buf)
				conn.(*net.TCPConn).SetLinger(0) // RST: the peer's next write fails
				conn.Close()
			}(rand.New(rand.NewSource(seed)))
		}
	}()
	return ln.Addr().String()
}

// TestStrandedReadsSettleOnce strands read-only batches on severed
// connections while fresh sends and the retry loop's re-drives are writing to
// them. A write that fails on a connection whose read loop has already taken
// the batch as stranded used to leave the batch with two owners — re-routed by
// the sender and parked by the read loop — which settled it twice and raced on
// its retry count. Every operation must settle exactly once.
func TestStrandedReadsSettleOnce(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	if err := meta.RegisterWorker(1, severingServer(t)); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < testPartitions; p++ {
		if err := meta.SetOwner(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewClient(ClientConfig{Partitions: testPartitions, BatchSize: 1, Window: 8, RetryBadOwner: 2, Relaxed: true}, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const ops = 400
	settled := make([]atomic.Int32, ops)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < ops; i++ {
			i := i
			c.Read([]byte(fmt.Sprintf("stranded-%d", i)), func(wire.OpResult) { settled[i].Add(1) })
		}
		done <- c.Drain()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("client did not drain: a stranded batch was never settled")
	}
	for i := range settled {
		if n := settled[i].Load(); n != 1 {
			t.Fatalf("operation %d settled %d times, want 1", i, n)
		}
	}
}
