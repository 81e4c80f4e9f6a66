package kv

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/storage"
)

// TestCheckpointSurvivesTransientStorageFailure: a failed flush abandons the
// checkpoint without corrupting anything; a retry after the device heals
// persists everything, and recovery sees a consistent image.
func TestCheckpointSurvivesTransientStorageFailure(t *testing.T) {
	flaky := storage.NewFlaky(storage.NewNull())
	s := NewStore(flaky, Config{BucketCount: 1 << 8})
	sess := s.NewSession()
	for i := 0; i < 100; i++ {
		sess.Upsert([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	flaky.FailWrites(true)
	if err := s.BeginCommit(1); err != nil {
		t.Fatal(err)
	}
	// The checkpoint must fail without persisting.
	time.Sleep(50 * time.Millisecond)
	if s.PersistedVersion() != 0 {
		t.Fatalf("persisted %d despite storage failure", s.PersistedVersion())
	}
	if flaky.FailedOps() == 0 {
		t.Fatal("no write was attempted")
	}
	// Operations keep working throughout.
	if got := mustRead(t, sess, "k42"); string(got) != "v" {
		t.Fatalf("read during failed checkpoint: %q", got)
	}
	sess.Upsert([]byte("during-outage"), []byte("x"))

	// Device heals; the retry persists everything written so far.
	flaky.FailWrites(false)
	target := s.CurrentVersion()
	if err := s.BeginCommit(target); err != nil {
		t.Fatal(err)
	}
	waitPersisted(t, s, target)
	sess.Close()
	s.Close()

	r, err := Recover(flaky, Config{BucketCount: 1 << 8}, target)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.NewSession()
	defer rs.Close()
	if got := mustRead(t, rs, "k42"); string(got) != "v" {
		t.Fatalf("recovered %q", got)
	}
	if got := mustRead(t, rs, "during-outage"); string(got) != "x" {
		t.Fatalf("outage-window write lost: %q", got)
	}
}

func TestPendingReadStorageFailure(t *testing.T) {
	flaky := storage.NewFlaky(storage.NewNull())
	s := NewStore(flaky, Config{BucketCount: 1 << 8, MemoryBudget: slabSize})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	big := make([]byte, 2048)
	for i := 0; i < 2000; i++ {
		sess.Upsert([]byte(fmt.Sprintf("fill-%05d", i)), big)
	}
	s.BeginCommit(1)
	waitPersisted(t, s, 1)
	s.maybeEvict()
	if s.HeadAddress() == 0 {
		t.Skip("nothing evicted")
	}
	flaky.FailReads(true)
	_, status, _ := sess.Read([]byte("fill-00000"), 9)
	if status != StatusPending {
		t.Skip("record still in memory")
	}
	comps := sess.CompletePending(true)
	if len(comps) != 1 || comps[0].Status != StatusError {
		t.Fatalf("pending read over failed device must surface an error: %+v", comps)
	}
	if !errors.Is(comps[0].Err, storage.ErrInjected) {
		t.Fatalf("error should unwrap to the device fault: %v", comps[0].Err)
	}
	// Heal: the same read now succeeds.
	flaky.FailReads(false)
	_, status, _ = sess.Read([]byte("fill-00000"), 10)
	if status == StatusPending {
		comps = sess.CompletePending(true)
		if len(comps) != 1 || comps[0].Status != StatusOK {
			t.Fatalf("healed read failed: %+v", comps)
		}
	} else if status != StatusOK {
		t.Fatalf("healed read status %v", status)
	}
}

// TestRecoverUnderReadFaults: a restarting worker whose device refuses reads
// must fail recovery cleanly — no partial store, no corrupted image — and a
// retry after the device heals recovers everything. This is the crash-restart
// path the chaos harness drives (its restart loop retries Recover until the
// storage faults clear).
func TestRecoverUnderReadFaults(t *testing.T) {
	flaky := storage.NewFlaky(storage.NewNull())
	cfg := Config{BucketCount: 1 << 8}
	s := NewStore(flaky, cfg)
	sess := s.NewSession()
	for i := 0; i < 200; i++ {
		sess.Upsert([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	target := s.CurrentVersion()
	if err := s.BeginCommit(target); err != nil {
		t.Fatal(err)
	}
	waitPersisted(t, s, target)
	sess.Close()
	s.Close()

	flaky.FailReads(true)
	for _, v := range []core.Version{target, 0} {
		if _, err := Recover(flaky, cfg, v); err == nil {
			t.Fatalf("recovery to %d over a read-failing device must error, not start empty", v)
		}
	}

	flaky.FailReads(false)
	r, err := Recover(flaky, cfg, target)
	if err != nil {
		t.Fatalf("healed recovery: %v", err)
	}
	defer r.Close()
	rs := r.NewSession()
	defer rs.Close()
	for _, k := range []string{"k0", "k42", "k199"} {
		want := "v" + k[1:]
		if got := mustRead(t, rs, k); string(got) != want {
			t.Fatalf("recovered %s = %q, want %q", k, got, want)
		}
	}
}

// failAfterReads passes through a bounded number of reads and then injects
// failures: the mid-restore fault window (checkpoint record readable, log
// body not).
type failAfterReads struct {
	storage.Device
	left atomic.Int64
}

func (d *failAfterReads) Read(blob string, offset int64, size int) ([]byte, error) {
	if d.left.Add(-1) < 0 {
		return nil, storage.ErrInjected
	}
	return d.Device.Read(blob, offset, size)
}

// TestRecoverReadFaultMidRestore: the device dies after recovery has already
// read the checkpoint record — the log load must surface the device error
// rather than return a half-populated store or mistake the unreadable range
// for a torn seal.
func TestRecoverReadFaultMidRestore(t *testing.T) {
	mem := storage.NewNull()
	cfg := Config{BucketCount: 1 << 8}
	s := NewStore(mem, cfg)
	sess := s.NewSession()
	for i := 0; i < 200; i++ {
		sess.Upsert([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	target := s.CurrentVersion()
	if err := s.BeginCommit(target); err != nil {
		t.Fatal(err)
	}
	waitPersisted(t, s, target)
	sess.Close()
	s.Close()

	// Allow the one record slot written so far through, then fail: the first
	// log-body read hits the injected fault.
	d := &failAfterReads{Device: mem}
	d.left.Store(1)
	_, err := Recover(d, cfg, target)
	if err == nil {
		t.Fatal("mid-restore read fault must fail recovery")
	}
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("error should unwrap to the device fault: %v", err)
	}

	// The same device with unlimited reads recovers fine (nothing was
	// corrupted by the aborted attempt).
	d.left.Store(1 << 30)
	r, err := Recover(d, cfg, target)
	if err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
	defer r.Close()
	rs := r.NewSession()
	defer rs.Close()
	if got := mustRead(t, rs, "k42"); string(got) != "v" {
		t.Fatalf("recovered %q", got)
	}
}
