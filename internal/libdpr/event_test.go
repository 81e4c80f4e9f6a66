package libdpr_test

import (
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/leakcheck"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/storage"
)

// newEventWorker builds one worker over a fresh kv store with the given
// config, defaulting ID/Addr, and registers cleanup.
func newEventWorker(t *testing.T, meta metadata.Service, cfg libdpr.WorkerConfig) (*libdpr.Worker, *kv.Store) {
	t.Helper()
	if cfg.ID == 0 {
		cfg.ID = 1
	}
	if cfg.Addr == "" {
		cfg.Addr = "inproc-1"
	}
	st := kv.NewStore(storage.NewNull(), kv.Config{BucketCount: 1 << 10})
	w, err := libdpr.NewWorker(cfg, st, meta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Stop()
		st.Close()
		leakcheck.Check(t)
	})
	return w, st
}

// TestWorkerEffectiveIntervals pins what /debug/dpr says about the one
// cadence: a worker with a CheckpointInterval pumps adaptively behind that
// heartbeat, a manual worker (no interval) does not pump at all, and both
// watch the finder.
func TestWorkerEffectiveIntervals(t *testing.T) {
	for _, tc := range []struct {
		name             string
		cfg              libdpr.WorkerConfig
		wantCheckpointMS float64
		wantPump         string
	}{
		{"heartbeat behind an adaptive pump", libdpr.WorkerConfig{CheckpointInterval: 100 * time.Millisecond}, 100, "adaptive"},
		{"manual-commit workers do not pump", libdpr.WorkerConfig{}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meta := metadata.NewStore(metadata.Config{})
			w, _ := newEventWorker(t, meta, tc.cfg)
			st := w.DebugState("test")
			if st.CheckpointIntervalMS != tc.wantCheckpointMS {
				t.Errorf("checkpoint_interval_ms = %v, want %v", st.CheckpointIntervalMS, tc.wantCheckpointMS)
			}
			if st.CommitPump != tc.wantPump {
				t.Errorf("commit_pump = %q, want %q", st.CommitPump, tc.wantPump)
			}
			if st.CommitGapMS != 0 {
				t.Errorf("commit_gap_ms = %v before any seal, want 0", st.CommitGapMS)
			}
			if !st.MetaWatch {
				t.Error("meta_watch should be true: every metadata service is watched")
			}
		})
	}
}

// execOne runs one guarded single-op batch through the worker (the path that
// marks the worker dirty for the commit pump) and completes the session.
func execOne(t *testing.T, w *libdpr.Worker, st *kv.Store, s *libdpr.Session, key, val string) uint64 {
	t.Helper()
	lane := w.NewLane()
	defer lane.Close()
	hdr, err := s.NextBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AdmitBatchGuarded(hdr, lane); err != nil {
		t.Fatal(err)
	}
	sess := st.NewSession()
	ver, err := sess.Upsert([]byte(key), []byte(val))
	sess.Close()
	if err != nil {
		w.ReleaseBatch(hdr, lane, false)
		t.Fatal(err)
	}
	w.ReleaseBatch(hdr, lane, true)
	if err := s.CompleteBatch(w.ID(), hdr, w.Reply([]core.Version{ver})); err != nil {
		t.Fatal(err)
	}
	return hdr.SeqStart
}

// TestCommitPumpBeatsCheckpointTimer is the tentpole latency property at the
// libdpr layer: with a deliberately long checkpoint heartbeat, an executed
// batch still commits in pump time (dirty mark → group commit → persist push
// → report → streamed cut), not timer time.
func TestCommitPumpBeatsCheckpointTimer(t *testing.T) {
	const heartbeat = 2 * time.Second
	meta := metadata.NewStore(metadata.Config{})
	w, st := newEventWorker(t, meta, libdpr.WorkerConfig{
		CheckpointInterval: heartbeat,
	})
	s, err := libdpr.NewSession(meta, true)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	seq := execOne(t, w, st, s, "k", "v")
	if err := s.WaitCommit(seq, heartbeat); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= heartbeat/4 {
		t.Fatalf("commit took %v: the pump should beat the %v heartbeat by far", elapsed, heartbeat)
	}
}

// TestHeartbeatBackstopCommits is the bound behind the pump: with the pump's
// dirty wake suppressed (the pump-off ablation), nothing but the heartbeat
// can start the commit, and an executed batch still commits within two
// CheckpointIntervals — and not before the first heartbeat, so the hook
// really took the pump out.
func TestHeartbeatBackstopCommits(t *testing.T) {
	const heartbeat = 200 * time.Millisecond
	meta := metadata.NewStore(metadata.Config{})
	w, st := newEventWorker(t, meta, libdpr.WorkerConfig{CheckpointInterval: heartbeat})
	w.SuppressDirtyWake()
	s, err := libdpr.NewSession(meta, true)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	seq := execOne(t, w, st, s, "k", "v")
	if err := s.WaitCommit(seq, 2*heartbeat-time.Since(start)); err != nil {
		t.Fatalf("not committed within two heartbeats of %v: %v", heartbeat, err)
	}
	if elapsed := time.Since(start); elapsed < heartbeat/2 {
		t.Fatalf("commit took %v with the pump's wake suppressed: expected to wait for the %v heartbeat", elapsed, heartbeat)
	}
}

// TestOnCutAdvanceStreams: the registered cut observer fires with the
// world-line and pre-encoded bytes when the cut advances past the executed
// batch — the signal the serving layer turns into unsolicited frames.
func TestOnCutAdvanceStreams(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{})
	type advance struct {
		wl      core.WorldLine
		encoded []byte
	}
	got := make(chan advance, 16)
	w, st := newEventWorker(t, meta, libdpr.WorkerConfig{
		CheckpointInterval: 2 * time.Second,
		EncodeCut:          func(c core.Cut) []byte { return append([]byte{0xCC}, byte(len(c))) },
	})
	w.OnCutAdvance(func(wl core.WorldLine, encoded []byte) {
		select {
		case got <- advance{wl, encoded}:
		default:
		}
	})
	s, err := libdpr.NewSession(meta, true)
	if err != nil {
		t.Fatal(err)
	}
	execOne(t, w, st, s, "k", "v")
	select {
	case adv := <-got:
		if adv.wl != 0 {
			t.Fatalf("cut advance on world-line %d, want 0", adv.wl)
		}
		if len(adv.encoded) == 0 || adv.encoded[0] != 0xCC {
			t.Fatalf("cut advance missing pre-encoded bytes: %v", adv.encoded)
		}
	case <-time.After(time.Second):
		t.Fatal("OnCutAdvance never fired after an executed batch")
	}
}

// TestWaitCutCoversGivesUpOnStop: a worker that is stopped while a caller
// waits for its cut position releases the waiter at once, with an error, and
// does not sleep out the timeout.
func TestWaitCutCoversGivesUpOnStop(t *testing.T) {
	w, _ := newEventWorker(t, metadata.NewStore(metadata.Config{}), libdpr.WorkerConfig{})
	done := make(chan error, 1)
	go func() { done <- w.WaitCutCovers(1000, time.Minute) }()
	time.Sleep(20 * time.Millisecond) // let it park
	w.Stop()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("WaitCutCovers reported version 1000 covered on a worker that never committed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitCutCovers still waiting 5s after Stop")
	}
}
