package dfaster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"dpr/internal/allocpin"
	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/leakcheck"
	"dpr/internal/metadata"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// localWorker is a worker owning every partition, with 1 024 keys written, for
// the co-located path. With the pump on it seals every few hundred
// microseconds under load, as it would under a client; off (a manual worker),
// nothing runs beside the caller, and the worker's loops have parked when it
// returns.
func localWorker(tb testing.TB, pump bool) (*Worker, metadata.Service, [][]byte) {
	cfg := WorkerConfig{ID: 1, Partitions: testPartitions, Device: storage.NewNull(),
		KV: kv.Config{BucketCount: 1 << 12, IndexShards: 8}}
	if pump {
		cfg.CheckpointInterval = 25 * time.Millisecond
	}
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	w, err := NewWorker(cfg, meta)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(w.Stop)
	for p := uint64(0); p < testPartitions; p++ {
		if err := w.ClaimPartitions(p); err != nil {
			tb.Fatal(err)
		}
	}
	sess := w.Store().NewSession()
	defer sess.Close()
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("local-key-%04d", i))
		if _, err := sess.Upsert(keys[i], []byte("local-value")); err != nil {
			tb.Fatal(err)
		}
	}
	parked()
	return w, meta, keys
}

// parked waits, for up to a second, until no goroutine but the caller is
// running or runnable. A goroutine a constructor started may not have run yet
// on a loaded host, and its start-up allocates — the process's first timer
// registers the runtime's GODEBUG metrics (~70 objects), a first blocking
// select takes new sudogs — inside whatever the caller measures next. Parked,
// it has paid that; what it does when it wakes is steady state.
func parked() {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		_, others, _ := bytes.Cut(buf[:runtime.Stack(buf, true)], []byte("\n\n")) // the caller's comes first
		if !bytes.Contains(others, []byte(" [running")) && !bytes.Contains(others, []byte(" [runnable")) {
			return
		}
	}
}

// BenchmarkExecuteLocal is the server half of a co-located operation alone: no
// TCP, no session, one single-read batch through ExecuteLocalScratch per
// iteration, with the pump on and off.
func BenchmarkExecuteLocal(b *testing.B) {
	for _, pump := range []bool{true, false} {
		b.Run(fmt.Sprintf("pump=%v", pump), func(b *testing.B) {
			w, _, keys := localWorker(b, pump)
			sess := w.Store().NewSession()
			defer sess.Close()
			lane := w.NewLane()
			defer lane.Close()
			sc := NewBatchScratch()
			req := wire.BatchRequest{Ops: make([]wire.Op, 1)}
			req.Header.SessionID, req.Header.NumOps = 1, 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.Header.SeqStart = uint64(i) + 1
				req.Ops[0] = wire.Op{Kind: wire.OpRead, Key: keys[i%len(keys)]}
				if _, refusal := w.ExecuteLocalScratch(sess, &req, sc, lane); refusal != nil {
					b.Fatal(refusal)
				}
			}
		})
	}
}

// localClient is a b = 1 client session co-located with w.
func localClient(tb testing.TB, w *Worker, meta metadata.Service) *Client {
	c, err := NewClient(ClientConfig{Partitions: testPartitions, BatchSize: 1, Relaxed: true, LocalWorker: w}, meta)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c
}

// BenchmarkClientLocal is a whole co-located operation, one Client.Read per
// iteration: routing, the session's NextBatch, the server half
// (BenchmarkExecuteLocal's), the session's CompleteBatch and the callback.
// The pump is on, so the cut the session folds moves as under load.
func BenchmarkClientLocal(b *testing.B) {
	w, meta, keys := localWorker(b, true)
	c := localClient(b, w, meta)
	done := 0
	cb := func(wire.OpResult) { done++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Read(keys[i%len(keys)], cb); err != nil {
			b.Fatal(err)
		}
	}
	if done != b.N {
		b.Fatalf("%d callbacks for %d reads", done, b.N)
	}
}

// TestColocatedClientZeroAlloc pins a whole co-located operation — enqueue,
// executeLocal, the session's completion, the callback — at no allocation in
// steady state, reads and upserts alike, with callbacks bound beforehand. The
// worker is a manual one, so that no commit round allocates in the
// background of the count.
func TestColocatedClientZeroAlloc(t *testing.T) {
	t.Cleanup(func() { leakcheck.Check(t) }) // registered first: runs after the client and the worker are down
	w, meta, keys := localWorker(t, false)
	c := localClient(t, w, meta)
	sent := 0
	c.cfg.OnSend = func(uint64, int) { sent++ } // as a history checker's
	value := []byte("colocated-value")
	failed := 0
	cb := func(r wire.OpResult) {
		if r.Status == wire.StatusError {
			failed++
		}
	}
	i := 0
	step := func() {
		k := keys[i%len(keys)]
		i++
		err := c.Read(k, cb)
		if err == nil {
			err = c.Upsert(k, value, cb)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 2000; j++ {
		step()
	}
	allocpin.Zero(t, "a co-located read and upsert", 2000, step)
	if failed != 0 {
		t.Fatalf("%d co-located operations failed", failed)
	}
	if sent != 2*i {
		t.Fatalf("OnSend saw %d operations, want %d", sent, 2*i)
	}
}

// echoWorker answers every batch request on one connection with OK results and
// the cut it is holding, and allocates nothing per batch, so what a benchmark
// or an AllocsPerRun around it counts is the client's.
func echoWorker(tb testing.TB, cut *core.Cut) (addr string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := wire.NewFrameReader(bufio.NewReaderSize(conn, 1<<16))
		defer fr.Close()
		bw := bufio.NewWriterSize(conn, 1<<16)
		var req wire.BatchRequest
		var reply wire.BatchReply
		var out []byte
		encoded, encodedFor := []byte(nil), core.Version(0)
		for served := 1; ; served++ {
			tag, payload, err := fr.Read()
			if err != nil || tag != wire.FrameBatchRequest || wire.DecodeBatchRequestInto(&req, payload) != nil {
				return
			}
			// The cut moves every 1 000 batches, as at a ~1 ms seal cadence.
			if v := core.Version(served/1000 + 1); v != encodedFor {
				(*cut)[1], encodedFor = v, v
				encoded = wire.AppendCut(encoded[:0], *cut)
			}
			reply.WorldLine, reply.EncodedCut, reply.Results = req.Header.WorldLine, encoded, reply.Results[:0]
			for range req.Ops {
				reply.Results = append(reply.Results, wire.OpResult{Status: wire.StatusOK, Version: 1})
			}
			out = wire.AppendBatchReply(out[:0], &reply)
			if wire.WriteFrame(bw, wire.FrameBatchReply, out) != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// remoteClient is a client session whose every partition an echoWorker owns,
// batching 64 operations, with 64 keys to write and a callback that counts.
func remoteClient(tb testing.TB) (*Client, [][]byte, OpCallback) {
	const batch = 64
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	if err := meta.RegisterWorker(1, echoWorker(tb, &core.Cut{})); err != nil {
		tb.Fatal(err)
	}
	for p := uint64(0); p < testPartitions; p++ {
		if err := meta.SetOwner(p, 1); err != nil {
			tb.Fatal(err)
		}
	}
	c, err := NewClient(ClientConfig{Partitions: testPartitions, BatchSize: batch, Window: 4 * batch, Relaxed: true}, meta)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	keys := make([][]byte, batch)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("remote-key-%02d", i))
	}
	done := 0
	return c, keys, func(wire.OpResult) { done++ }
}

// remoteBatches returns one step of a client's remote path — a batch of 64
// enqueued, transmitted, answered and settled, callbacks fired — against an
// echoWorker.
func remoteBatches(tb testing.TB) func() {
	c, keys, cb := remoteClient(tb)
	return func() {
		for _, k := range keys {
			if err := c.Upsert(k, k, cb); err != nil {
				tb.Fatal(err)
			}
		}
		if err := c.Drain(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkClientEnqueueSettle is one remote batch of 64 through the client:
// enqueue, transmit, the reply read and settled. The far end is an echoWorker
// on loopback, so the time is the client's plus one TCP round trip.
func BenchmarkClientEnqueueSettle(b *testing.B) {
	step := remoteBatches(b)
	for i := 0; i < 200; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestRemoteBatchZeroAlloc pins the client's remote path at no allocation per
// steady-state batch: batches come off the free list with their arrays, the
// routing table is read in place, the in-flight FIFO does not creep, and the
// 6 000 batches cross six moves of the cut. Each step sends a full batch, a
// partial one that Drain's Flush sends, and a batch of RMWs, whose deltas the
// batch holds.
func TestRemoteBatchZeroAlloc(t *testing.T) {
	full := remoteBatches(t)
	c, keys, cb := remoteClient(t)
	step := func() {
		full()
		for _, k := range keys[:5] {
			if err := c.Upsert(k, k, cb); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if err := c.RMW(k, uint64(i), cb); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1200; i++ {
		step()
	}
	allocpin.Zero(t, "a remote batch, in the client,", 2000, step)
}
