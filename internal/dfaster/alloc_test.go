package dfaster_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"dpr/internal/allocpin"
	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// TestInstrumentedServePathZeroAlloc pins the batch serve loop with the obs
// subsystem live: client header, server-side admission, execution of every
// kind of operation, dependency recording, reply, client completion — at 0
// allocs/op even though every batch records counters, two histograms and the
// commit-latency probe. The instruments are pure atomics; a regression here
// means something put an allocation or a lock on the hot path.
func TestInstrumentedServePathZeroAlloc(t *testing.T) {
	const partitions = 8
	const batchSize = 32
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	w, err := dfaster.NewWorker(dfaster.WorkerConfig{
		ID:                 1,
		CheckpointInterval: time.Hour, // keep background maintenance out of the counts
		Partitions:         partitions,
		Device:             storage.NewNull(),
		KV:                 kv.Config{BucketCount: 1 << 10},
	}, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	for p := 0; p < partitions; p++ {
		if err := w.ClaimPartitions(uint64(p)); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := libdpr.NewSession(meta, true)
	if err != nil {
		t.Fatal(err)
	}
	kvSess := w.Store().NewSession()
	defer kvSess.Close()
	sc := dfaster.NewBatchScratch()
	lane := w.NewLane()
	defer lane.Close()

	// Every arm of the in-memory pass: upserts, reads that find their key and
	// reads that do not, RMWs, deletes, and one operation of no known kind.
	ops := make([]wire.Op, batchSize)
	delta := binary.LittleEndian.AppendUint64(nil, 3)
	for i := range ops {
		key := []byte(fmt.Sprintf("alloc-key-%03d", i%8))
		switch i % 4 {
		case 0:
			ops[i] = wire.Op{Kind: wire.OpUpsert, Key: key, Value: []byte("alloc-value")}
		case 1:
			ops[i] = wire.Op{Kind: wire.OpRead, Key: key}
		case 2:
			ops[i] = wire.Op{Kind: wire.OpRMW, Key: key, Value: delta}
		case 3:
			ops[i] = wire.Op{Kind: wire.OpDelete, Key: key}
		}
	}
	ops[batchSize-1].Kind = 0xEE
	req := &wire.BatchRequest{Ops: ops}
	versions := make([]core.Version, batchSize)

	// Batches alternate between two dependencies, so that every batch records
	// one: the lane's cache of the pair it recorded last never hits.
	deps := [2]core.Token{{Worker: 2, Version: 1}, {Worker: 3, Version: 1}}
	// Nothing here ever commits, so the session would remember every batch
	// as an exception and grow its lists now and then. The session folds
	// one of two cuts that commit everything instead, as a session does in a
	// steady state; the two differ so that each one advances the prefix.
	far := core.Version(1 << 40)
	commits := [2]core.Cut{{w.ID(): far, 2: 1, 3: 1}, {w.ID(): far + 1, 2: 1, 3: 1}}
	batches := 0
	runBatch := func() {
		h, err := sess.NextBatch(batchSize)
		if err != nil {
			t.Fatal(err)
		}
		req.Header = h
		req.Header.Dep = deps[batches%2]
		batches++
		reply, errReply := w.ExecuteLocalScratch(kvSess, req, sc, lane)
		if errReply != nil {
			t.Fatalf("batch refused: %+v", errReply)
		}
		for i, r := range reply.Results {
			versions[i] = r.Version
		}
		if err := sess.CompleteBatch(w.ID(), h, libdpr.BatchReply{
			WorldLine: reply.WorldLine, Versions: versions, Cut: commits[batches%2],
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Warm: store structures, scratch, session maps, dependency cache.
	for i := 0; i < 200; i++ {
		runBatch()
	}
	allocpin.Zero(t, "the instrumented serve path", 200, runBatch)
}
