package dfaster

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// BenchmarkExecuteLocal is the server half of a co-located operation alone: no
// TCP, no session, one single-read batch through ExecuteLocalScratch per
// iteration. With the pump on the worker seals every few hundred microseconds
// as it would under a client; off (a manual worker), nothing runs beside the
// loop.
func BenchmarkExecuteLocal(b *testing.B) {
	for _, pump := range []bool{true, false} {
		b.Run(fmt.Sprintf("pump=%v", pump), func(b *testing.B) {
			cfg := WorkerConfig{ID: 1, Partitions: testPartitions, Device: storage.NewNull(),
				KV: kv.Config{BucketCount: 1 << 12, IndexShards: 8}}
			if pump {
				cfg.CheckpointInterval = 25 * time.Millisecond
			}
			w, err := NewWorker(cfg, metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate}))
			if err != nil {
				b.Fatal(err)
			}
			defer w.Stop()
			for p := uint64(0); p < testPartitions; p++ {
				if err := w.ClaimPartitions(p); err != nil {
					b.Fatal(err)
				}
			}
			sess := w.Store().NewSession()
			defer sess.Close()
			lane := w.NewLane()
			defer lane.Close()
			sc := NewBatchScratch()
			keys := make([][]byte, 1024)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("local-key-%04d", i))
				if _, err := sess.Upsert(keys[i], []byte("local-value")); err != nil {
					b.Fatal(err)
				}
			}
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

// remoteBatches returns one step of a client's remote path — a batch of 64
// enqueued, transmitted, answered and settled, callbacks fired — against an
// echoWorker.
func remoteBatches(tb testing.TB) func() {
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
	cb := func(wire.OpResult) { done++ }
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
// 2 000 batches cross two moves of the cut.
func TestRemoteBatchZeroAlloc(t *testing.T) {
	step := remoteBatches(t)
	for i := 0; i < 1200; i++ {
		step()
	}
	if n := testing.AllocsPerRun(2000, step); n != 0 {
		t.Fatalf("a remote batch allocates %.2f/op in the client, want 0", n)
	}
}
