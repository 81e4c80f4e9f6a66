package dfaster

import (
	"testing"
	"time"

	"dpr/internal/kv"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/serve"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// heldApply is a connection's applier that, once admitted, waits for release
// before its in-memory pass, announcing on in that it holds the batch.
type heldApply struct {
	*kvApply
	in, release chan struct{}
}

func (h heldApply) Apply(req *wire.BatchRequest, results []wire.OpResult, arena *[]byte) *wire.ErrorReply {
	close(h.in)
	<-h.release
	return h.kvApply.Apply(req, results, arena)
}

// TestRollbackWaitsConnectionBatch: a connection's batch holds its kv
// session's epoch slot, lent to the connection's lane, from admission to
// release and takes no slot of the worker's own, so the rollback a recovery
// round brings must drain the store's table to wait for it: the world-line
// does not move while the batch executes, the batch is answered on the
// world-line it was admitted on, and the rollback follows its release.
func TestRollbackWaitsConnectionBatch(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	w, err := NewWorker(WorkerConfig{
		ID:                 1,
		CheckpointInterval: time.Millisecond,
		Partitions:         1,
		Device:             storage.NewNull(),
		KV:                 kv.Config{BucketCount: 1 << 8},
	}, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if err := w.ClaimPartitions(0); err != nil {
		t.Fatal(err)
	}
	conn := w.openConn()
	defer func() {
		conn.Lane.Close()
		conn.Close()
	}()
	a := conn.Apply.(*kvApply)
	held := heldApply{kvApply: a, in: make(chan struct{}), release: make(chan struct{})}
	sess, err := libdpr.NewSession(meta, true)
	if err != nil {
		t.Fatal(err)
	}
	ops := []wire.Op{
		{Kind: wire.OpUpsert, Key: []byte("a"), Value: []byte("1")},
		{Kind: wire.OpUpsert, Key: []byte("b"), Value: []byte("2")},
	}
	h, err := sess.NextBatch(len(ops))
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		reply   *wire.BatchReply
		refusal *wire.ErrorReply
	}
	done := make(chan result, 1)
	go func() {
		reply, refusal := w.Execute(&wire.BatchRequest{Header: h, Ops: ops}, held, new(serve.Scratch), conn.Lane)
		done <- result{reply, refusal}
	}()
	<-held.in
	if !a.sess.Slot().Held() {
		t.Fatal("the admitted batch does not hold its kv session's slot")
	}
	wl := w.DPR().WorldLine()
	next, _ := meta.BeginRecovery()
	meta.CompleteRecoveryFor(next)
	time.Sleep(50 * time.Millisecond) // the worker's refresh sees the round at once
	if now := w.DPR().WorldLine(); now != wl {
		close(held.release)
		<-done
		t.Fatalf("the worker rolled back to world-line %d while a connection's batch executed on %d", now, wl)
	}
	close(held.release)
	r := <-done
	if r.refusal != nil {
		t.Fatalf("batch refused: %+v", r.refusal)
	}
	if r.reply.WorldLine != wl {
		t.Fatalf("batch answered on world-line %d, admitted on %d", r.reply.WorldLine, wl)
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.DPR().WorldLine() < next {
		if time.Now().After(deadline) {
			t.Fatalf("the worker never rolled back to world-line %d after the batch's release", next)
		}
		time.Sleep(time.Millisecond)
	}
}
