package dfaster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/leakcheck"
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
	t.Cleanup(func() { leakcheck.Check(t) }) // registered first: runs after every other teardown
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	if err := meta.RegisterWorker(1, severingServer(t)); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < testPartitions; p++ {
		if err := meta.SetOwner(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewClient(ClientConfig{Partitions: testPartitions, BatchSize: 1, Window: 8, Relaxed: true}, meta)
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
	checkQuiescent(t, c)
}

// proxiedCluster is a one-worker cluster whose clients reach the worker
// through a fault proxy.
func proxiedCluster(t *testing.T) (*testCluster, *wire.FaultProxy) {
	t.Helper()
	tc := newTestCluster(t, 1, 2*time.Millisecond)
	proxy, err := wire.NewFaultProxy(tc.workers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	if err := tc.meta.RegisterWorker(1, proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	return tc, proxy
}

// TestLostOpDoesNotHoldTheSession loses one operation to a blackhole and a
// sever. Its callback gets StatusError and its window slot comes back — and
// the session must hear of it too: a sequence number left PENDING for ever
// holds WaitCommit until the next cluster-wide recovery ("commit of seq 11
// timed out (prefix at 10, 0 exceptions)" when the lost operation is the
// last, "prefix at 21, 1 exceptions" when it is not). A lost write is
// abandoned: never committed, no longer waited for. A lost read is re-driven
// and answered, so nothing is abandoned at all.
func TestLostOpDoesNotHoldTheSession(t *testing.T) {
	t.Cleanup(func() { leakcheck.Check(t) }) // registered first: runs after every other teardown
	for _, tc := range []struct {
		name      string
		read      bool
		after     int // operations issued after the lost one
		wantExc   []uint64
		wantState byte
	}{
		{"last", false, 0, []uint64{11}, wire.StatusError},
		{"in the middle", false, 10, []uint64{11}, wire.StatusError},
		{"a read is re-driven", true, 10, nil, wire.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, proxy := proxiedCluster(t)
			c := newTestClient(t, cl, 1, 32)
			upserts := func(n int) {
				for i := 0; i < n; i++ {
					if err := c.Upsert([]byte(fmt.Sprintf("key-%d", i)), []byte("v"), nil); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.Drain(); err != nil {
					t.Fatal(err)
				}
			}
			upserts(10)
			proxy.SetBlackhole(true)
			var status atomic.Int32
			status.Store(-1)
			cb := func(r wire.OpResult) { status.Store(int32(r.Status)) }
			var err error
			if tc.read {
				err = c.Read([]byte("key-0"), cb)
			} else {
				err = c.Upsert([]byte("key-0"), []byte("lost"), cb)
			}
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond) // let the proxy swallow it
			proxy.SeverAll()
			proxy.SetBlackhole(false)
			if err := c.Drain(); err != nil {
				t.Fatal(err)
			}
			if got := status.Load(); got != int32(tc.wantState) {
				t.Fatalf("the lost operation's status is %d, want %d", got, tc.wantState)
			}
			upserts(tc.after)
			// The wait is not held by the lost write, and reports it: once.
			err = c.WaitCommitAll(10 * time.Second)
			var lost *core.AbandonedError
			if len(tc.wantExc) > 0 && (!errors.As(err, &lost) || lost.Seq != tc.wantExc[0]) {
				t.Fatalf("WaitCommitAll = %v, want an AbandonedError at seq %d", err, tc.wantExc[0])
			}
			if len(tc.wantExc) > 0 {
				err = c.WaitCommitAll(10 * time.Second)
			}
			if err != nil {
				t.Fatalf("WaitCommitAll: %v", err)
			}
			p, exc := c.Committed()
			if want := uint64(11 + tc.after); p != want || !slices.Equal(exc, tc.wantExc) {
				t.Fatalf("prefix %d exceptions %v, want %d and %v", p, exc, want, tc.wantExc)
			}
			if n, _ := c.Abandoned(); n != uint64(len(tc.wantExc)) {
				t.Fatalf("%d operations abandoned, want %d", n, len(tc.wantExc))
			}
			checkQuiescent(t, c)
		})
	}
}

// TestUnreachableWorkerIsReported: a write to a worker nobody answers for
// is re-driven until its retries are spent, then abandoned. Upsert and Flush
// have long returned by then, so WaitCommitAll is what tells a caller that
// passed no callback: it fails once, naming the write, and an acknowledged
// rollback — which accounts for the write itself — clears the report.
func TestUnreachableWorkerIsReported(t *testing.T) {
	t.Cleanup(func() { leakcheck.Check(t) }) // registered first: runs after every other teardown
	tc, proxy := proxiedCluster(t)
	proxy.Close()
	c := newTestClient(t, tc, 1, 8)
	lose := func() {
		t.Helper()
		if err := c.Upsert([]byte("k"), []byte("v"), nil); err != nil {
			t.Fatalf("Upsert: %v", err)
		}
		if err := c.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
	}
	lose()
	lose()
	var lost *core.AbandonedError
	if err := c.WaitCommitAll(10 * time.Second); !errors.As(err, &lost) || lost.Seq != 1 {
		t.Fatalf("WaitCommitAll = %v, want an AbandonedError at seq 1", err)
	}
	if err := c.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatalf("second WaitCommitAll: %v", err)
	}
	if p, exc := c.Committed(); p != 2 || !slices.Equal(exc, []uint64{1, 2}) {
		t.Fatalf("prefix %d exceptions %v, want 2 and [1 2]", p, exc)
	}
	lose()
	if _, _, err := tc.mgr.OnFailure(); err != nil {
		t.Fatal(err)
	}
	var surv *core.SurvivalError
	if err := c.WaitCommitAll(10 * time.Second); !errors.As(err, &surv) {
		t.Fatalf("WaitCommitAll after a recovery = %v, want a SurvivalError", err)
	}
	c.Acknowledge()
	if err := c.WaitCommitAll(10 * time.Second); err != nil {
		t.Fatalf("WaitCommitAll after Acknowledge: %v", err)
	}
	checkQuiescent(t, c)
}

// TestColocatedRejectReleasesSlot: a co-located operation the local worker
// rejects (here: issued on a world-line a recovery has just ended) is settled
// like any other — its callback fires, its window slot and sequence number
// are released. The local path used to return from the rejection holding
// both, so a session wedged after Window recoveries.
func TestColocatedRejectReleasesSlot(t *testing.T) {
	t.Cleanup(func() { leakcheck.Check(t) }) // registered first: runs after every other teardown
	tc := newTestCluster(t, 1, 2*time.Millisecond)
	c, err := NewClient(ClientConfig{Partitions: testPartitions, Window: 4, Relaxed: true, LocalWorker: tc.workers[0]}, tc.meta)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		for round := 0; round < 8; round++ {
			if _, _, err := tc.mgr.OnFailure(); err != nil {
				done <- err
				return
			}
			var fired, status atomic.Int32
			err := c.Upsert([]byte("k"), []byte("v"), func(r wire.OpResult) {
				status.Store(int32(r.Status))
				fired.Add(1)
			})
			if err == nil || fired.Load() != 1 || status.Load() != int32(wire.StatusError) {
				done <- fmt.Errorf("round %d: rejected upsert returned %v, callback fired %d times with status %d", round, err, fired.Load(), status.Load())
				return
			}
			c.Acknowledge()
			if err := c.Upsert([]byte("k"), []byte("v"), nil); err != nil {
				done <- fmt.Errorf("round %d: upsert on the new world-line: %w", round, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a co-located upsert blocked: rejected operations leaked the window")
	}
	checkQuiescent(t, c)
}

// TestRestartedWorkerNewAddress: a worker that comes back on another address
// registers it with metadata, and the client must ask again after the old
// one stops answering instead of dialling it until its retries are spent.
func TestRestartedWorkerNewAddress(t *testing.T) {
	t.Cleanup(func() { leakcheck.Check(t) }) // registered first: runs after every other teardown
	tc, old := proxiedCluster(t)
	c := newTestClient(t, tc, 1, 8)
	if err := c.Upsert([]byte("k"), []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	moved, err := wire.NewFaultProxy(tc.workers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer moved.Close()
	old.Close()
	if err := tc.meta.RegisterWorker(1, moved.Addr()); err != nil {
		t.Fatal(err)
	}
	var status atomic.Int32
	status.Store(-1)
	if err := c.Read([]byte("k"), func(r wire.OpResult) { status.Store(int32(r.Status)) }); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := status.Load(); got != int32(wire.StatusOK) {
		t.Fatalf("read after the worker moved: status %d, want OK through the new address", got)
	}
	checkQuiescent(t, c)
}
