package dfaster_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// counter is a little-endian uint64 value, an RMW's operand and result.
func counter(n uint64) []byte { return binary.LittleEndian.AppendUint64(nil, n) }

// pendingValue is key-%05d's value in newEvictedWorker's store.
func pendingValue(i int) []byte {
	return append([]byte(fmt.Sprintf("key-%05d:", i)), make([]byte, 1024)...)
}

// newEvictedWorker starts a worker on dev, owning the one partition, whose
// memory budget has evicted the first of the keys it loaded: "ctr-old"
// (counter 5) and the first key-%05d records lie on the device, "ctr-new"
// (counter 40), written last, in memory.
func newEvictedWorker(t *testing.T, dev storage.Device) (*dfaster.Worker, *metadata.Store) {
	t.Helper()
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	w, err := dfaster.NewWorker(dfaster.WorkerConfig{
		ID:                 1,
		CheckpointInterval: 10 * time.Millisecond,
		Partitions:         1,
		Device:             dev,
		KV:                 kv.Config{BucketCount: 1 << 8, MemoryBudget: 1 << 20},
	}, meta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	if err := w.ClaimPartitions(0); err != nil {
		t.Fatal(err)
	}

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
		upsert(fmt.Sprintf("key-%05d", i), pendingValue(i))
	}
	upsert("ctr-new", counter(40))
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, status, _ := load.Read([]byte("key-00000"), 0); status == kv.StatusPending {
			load.CompletePending(true)
			return w, meta
		}
		if time.Now().After(deadline) {
			t.Fatal("the memory budget never evicted the first keys")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPendingSettlesInBatch: one batch mixes operations on records the memory
// budget evicted, which go PENDING on the device, with operations in memory.
// Every result carries its own operation's value, and nothing is left pending
// on the connection's kv session for the next batch to settle.
func TestPendingSettlesInBatch(t *testing.T) {
	w, meta := newEvictedWorker(t, storage.NewNull())
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
		{wire.Op{Kind: wire.OpRead, Key: []byte("key-00000")}, wire.StatusOK, pendingValue(0)},
		{wire.Op{Kind: wire.OpRead, Key: []byte("key-02999")}, wire.StatusOK, pendingValue(2999)},
		{wire.Op{Kind: wire.OpRMW, Key: []byte("ctr-old"), Value: counter(2)}, wire.StatusOK, counter(7)},
		{wire.Op{Kind: wire.OpUpsert, Key: []byte("fresh"), Value: []byte("v")}, wire.StatusOK, nil},
		{wire.Op{Kind: wire.OpRead, Key: []byte("missing")}, wire.StatusNotFound, nil},
		{wire.Op{Kind: wire.OpRead, Key: []byte("key-00001")}, wire.StatusOK, pendingValue(1)},
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

// slowReads is a device whose reads, while armed, each wait for release,
// announcing on reading that one has begun.
type slowReads struct {
	storage.Device
	armed   atomic.Bool
	reading chan struct{}
	release chan struct{}
}

func (d *slowReads) Read(blob string, offset int64, size int) ([]byte, error) {
	if d.armed.Load() {
		select {
		case d.reading <- struct{}{}:
		default:
		}
		<-d.release
	}
	return d.Device.Read(blob, offset, size)
}

// TestColocatedPendingReadLeavesStoreDrains: a co-located batch holds its kv
// session's epoch slot while it executes, but not while a read of it waits on
// the device: a drain of the store's epoch table — a seal's version shift —
// ends while the read is still outstanding, and the read then settles in its
// batch with its value.
func TestColocatedPendingReadLeavesStoreDrains(t *testing.T) {
	dev := &slowReads{Device: storage.NewNull(), reading: make(chan struct{}, 1), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(dev.release) }) }
	defer release()
	w, meta := newEvictedWorker(t, dev)
	sess, err := libdpr.NewSession(meta, true)
	if err != nil {
		t.Fatal(err)
	}
	kvSess := w.Store().NewSession()
	defer kvSess.Close()
	lane := w.NewSessionLane(kvSess)
	defer lane.Close()
	h, err := sess.NextBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	dev.armed.Store(true)
	type result struct {
		r       wire.OpResult
		refusal *wire.ErrorReply
	}
	done := make(chan result, 1)
	go func() {
		req := &wire.BatchRequest{Header: h, Ops: []wire.Op{{Kind: wire.OpRead, Key: []byte("key-00000")}}}
		reply, refusal := w.ExecuteLocalScratch(kvSess, req, dfaster.NewBatchScratch(), lane)
		if refusal != nil {
			done <- result{refusal: refusal}
			return
		}
		done <- result{r: reply.Results[0]}
	}()
	select {
	case <-dev.reading:
	case <-time.After(10 * time.Second):
		t.Fatal("the read of an evicted key never reached the device")
	}
	drained := make(chan struct{})
	go func() {
		w.Store().Epochs().Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		release()
		<-done
		t.Fatal("a drain of the store's epoch table waited on a co-located read held on the device")
	}
	select {
	case r := <-done:
		t.Fatalf("the batch settled while its read was held on the device: %+v", r)
	default:
	}
	dev.armed.Store(false)
	release()
	r := <-done
	if r.refusal != nil {
		t.Fatalf("batch refused: %+v", r.refusal)
	}
	if r.r.Status != wire.StatusOK || !bytes.Equal(r.r.Value, pendingValue(0)) {
		t.Fatalf("read status %d, value %.12q; want %d, %.12q", r.r.Status, r.r.Value, wire.StatusOK, pendingValue(0))
	}
}
