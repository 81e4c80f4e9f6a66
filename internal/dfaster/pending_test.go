package dfaster_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// TestPendingSettlesInBatch: one batch mixes operations on records the memory
// budget evicted, which go PENDING on the device, with operations in memory.
// Every result carries its own operation's value, and nothing is left pending
// on the connection's kv session for the next batch to settle.
func TestPendingSettlesInBatch(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	w, err := dfaster.NewWorker(dfaster.WorkerConfig{
		ID:                 1,
		CheckpointInterval: 10 * time.Millisecond,
		Partitions:         1,
		Device:             storage.NewNull(),
		KV:                 kv.Config{BucketCount: 1 << 8, MemoryBudget: 1 << 20},
	}, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if err := w.ClaimPartitions(0); err != nil {
		t.Fatal(err)
	}
	counter := func(n uint64) []byte { return binary.LittleEndian.AppendUint64(nil, n) }
	value := func(i int) []byte { return append([]byte(fmt.Sprintf("key-%05d:", i)), make([]byte, 1024)...) }

	// The counter and the first keys are written first, so the budget evicts
	// them once a checkpoint has flushed the log.
	load := w.Store().NewSession()
	defer load.Close()
	upsert := func(k string, v []byte) {
		if _, err := load.Upsert([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	upsert("ctr-old", counter(5))
	for i := 0; i < 3000; i++ {
		upsert(fmt.Sprintf("key-%05d", i), value(i))
	}
	upsert("ctr-new", counter(40))
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, status, _ := load.Read([]byte("key-00000"), 0); status == kv.StatusPending {
			load.CompletePending(true)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the memory budget never evicted the first keys")
		}
		time.Sleep(5 * time.Millisecond)
	}

	sess, err := libdpr.NewSession(meta, true)
	if err != nil {
		t.Fatal(err)
	}
	kvSess := w.Store().NewSession()
	defer kvSess.Close()
	sc, lane := dfaster.NewBatchScratch(), w.NewLane()
	defer lane.Close()
	run := func(ops []wire.Op) []wire.OpResult {
		t.Helper()
		h, err := sess.NextBatch(len(ops))
		if err != nil {
			t.Fatal(err)
		}
		reply, refusal := w.ExecuteLocalScratch(kvSess, &wire.BatchRequest{Header: h, Ops: ops}, sc, lane)
		if refusal != nil {
			t.Fatalf("batch refused: %+v", refusal)
		}
		if left := kvSess.CompletePending(false); len(left) != 0 {
			t.Fatalf("%d completions left for the next batch to settle", len(left))
		}
		return reply.Results
	}
	want := []struct {
		op     wire.Op
		status uint8
		value  []byte
	}{
		{wire.Op{Kind: wire.OpRead, Key: []byte("key-00000")}, wire.StatusOK, value(0)},
		{wire.Op{Kind: wire.OpRead, Key: []byte("key-02999")}, wire.StatusOK, value(2999)},
		{wire.Op{Kind: wire.OpRMW, Key: []byte("ctr-old"), Value: counter(2)}, wire.StatusOK, counter(7)},
		{wire.Op{Kind: wire.OpUpsert, Key: []byte("fresh"), Value: []byte("v")}, wire.StatusOK, nil},
		{wire.Op{Kind: wire.OpRead, Key: []byte("missing")}, wire.StatusNotFound, nil},
		{wire.Op{Kind: wire.OpRead, Key: []byte("key-00001")}, wire.StatusOK, value(1)},
		{wire.Op{Kind: wire.OpRMW, Key: []byte("ctr-new"), Value: counter(1)}, wire.StatusOK, counter(41)},
		{wire.Op{Kind: wire.OpRead, Key: []byte("fresh")}, wire.StatusOK, []byte("v")},
	}
	ops := make([]wire.Op, len(want))
	for i := range want {
		ops[i] = want[i].op
	}
	for i, r := range run(ops) {
		if r.Status != want[i].status || !bytes.Equal(r.Value, want[i].value) {
			t.Errorf("op %d (%d %s): status %d, value %.12q; want %d, %.12q",
				i, want[i].op.Kind, want[i].op.Key, r.Status, r.Value, want[i].status, want[i].value)
		}
	}
	// A batch in memory after it settles on its own.
	for i, r := range run([]wire.Op{{Kind: wire.OpRead, Key: []byte("ctr-old")}}) {
		if !bytes.Equal(r.Value, counter(7)) {
			t.Errorf("op %d: read %q after the RMW, want %q", i, r.Value, counter(7))
		}
	}
}
