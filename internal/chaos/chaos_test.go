package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpr/internal/kv"
	"dpr/internal/leakcheck"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/wire"
)

// obsArtifact is the JSON document dumped next to a failing seed: the seed,
// the reason and schedule, and every live component's /debug/dpr snapshot
// (versions, cuts, world-lines, trace rings) at the moment of failure.
type obsArtifact struct {
	Seed      int64          `json:"seed"`
	Reason    string         `json:"reason"`
	Schedule  string         `json:"schedule"`
	Snapshots []obs.DPRState `json:"snapshots"`
}

// dumpObsArtifact writes the cluster's observability state to
// $CHAOS_ARTIFACT_DIR/chaos-obs-seed<seed>.json (default: the working
// directory) so CI uploads it alongside chaos.log.
func dumpObsArtifact(t *testing.T, h *Harness, seed int64, schedule, reason string) {
	t.Helper()
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		dir = "."
	}
	art := obsArtifact{Seed: seed, Reason: reason, Schedule: schedule, Snapshots: h.ObsDump()}
	data, err := json.MarshalIndent(&art, "", "  ")
	if err != nil {
		t.Logf("obs artifact: marshal: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-obs-seed%d.json", seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Logf("obs artifact: write %s: %v", path, err)
		return
	}
	t.Logf("obs snapshots dumped to %s", path)
}

// chaosSeeds picks the seed set: CHAOS_SEED replays one failing scenario,
// CHAOS_SEEDS=<n> sweeps n consecutive seeds (nightly), short mode pins the
// default seed, and the full run covers all three finder kinds.
func chaosSeeds(t *testing.T) []int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		return []int64{v}
	}
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_SEEDS %q: %v", s, err)
		}
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = 42 + int64(i)
		}
		return seeds
	}
	if testing.Short() {
		return []int64{42}
	}
	return []int64{42, 43, 44}
}

// chaosShards reads CHAOS_SHARDS: the kv index shard count per worker.
// 0 (the default when unset) means the kv package default. The nightly
// parallel-shard sweep sets CHAOS_SHARDS=4 so the sharded epoch-protected
// index, per-shard checkpoint scans, and parallel recovery rebuild all run
// under fault injection.
func chaosShards(t *testing.T) int {
	s := os.Getenv("CHAOS_SHARDS")
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		t.Fatalf("bad CHAOS_SHARDS %q: %v", s, err)
	}
	return n
}

// TestChaos is the harness entry point: for each seed, stand up a real
// cluster, replay the derived fault schedule under concurrent traffic, then
// quiesce and validate the full history. Any failure message carries the
// seed and the schedule, so the exact scenario replays with CHAOS_SEED.
func TestChaos(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosScenario(t, seed)
		})
	}
}

func runChaosScenario(t *testing.T, seed int64) {
	cfg := Config{
		DFaster:     3,
		DRedis:      1,
		Partitions:  32,
		Checkpoint:  5 * time.Millisecond,
		Finder:      FinderFor(seed),
		IndexShards: chaosShards(t),
	}
	events := 16
	if testing.Short() {
		events = 10
	}
	sch := Generate(seed, events, cfg.DFaster, cfg.DFaster+cfg.DRedis)

	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	// Deferred first, so it runs last: after the sessions and the harness
	// have closed, nothing the schedule started — workers killed and
	// restarted, severed connections — may still be running.
	defer leakcheck.Check(t)
	defer h.Close()
	monitor := newCutMonitor(h.Store())

	const sessions = 3
	runners := make([]*sessionRunner, 0, sessions)
	for sid := 0; sid < sessions; sid++ {
		r, err := newSessionRunner(sid, h, seed)
		if err != nil {
			t.Fatalf("session %d: %v", sid, err)
		}
		defer r.close()
		runners = append(runners, r)
		r.start()
	}

	execErr := h.Execute(sch, t.Logf)
	for _, r := range runners {
		r.halt()
	}
	if execErr != nil {
		dumpObsArtifact(t, h, seed, sch.String(), fmt.Sprintf("schedule execution: %v", execErr))
		t.Fatalf("schedule execution: %v\nschedule:\n%s", execErr, sch)
	}

	// Quiesce: every session drives its history to fully-committed, then
	// reads back everything it ever wrote over the fault-free cluster.
	for _, r := range runners {
		if err := r.settle(20 * time.Second); err != nil {
			dumpObsArtifact(t, h, seed, sch.String(), fmt.Sprintf("settle: %v", err))
			t.Fatalf("%v\nschedule:\n%s", err, sch)
		}
		r.readback()
	}

	var violations []string
	for _, r := range runners {
		violations = append(violations, r.violations()...)
	}
	violations = append(violations, monitor.Stop()...)
	if len(violations) > 0 {
		dumpObsArtifact(t, h, seed, sch.String(),
			fmt.Sprintf("invariant violations: %s", strings.Join(violations, "; ")))
		t.Fatalf("invariant violations:\n  %s\nschedule:\n%s",
			strings.Join(violations, "\n  "), sch)
	}
}

// writeKeys writes one fresh value to each of n fixed keys (self-test and
// settled-round helper; the fuzz-style traffic lives in sessionRunner).
func writeKeys(r *sessionRunner, n int) {
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("s%d-k%02d", r.sid, i)
		rec := r.chk.beginWrite(key)
		r.pending = rec
		err := r.client.Upsert([]byte(key), []byte(rec.wr.value), func(res wire.OpResult) {
			r.chk.completeWrite(rec, res.Status == wire.StatusOK, res.Version)
		})
		r.pending = nil
		if err != nil {
			r.handleErr(err)
		}
	}
}

// TestChaosCheckerCatchesViolation proves the checker has teeth: a recovery
// round where one worker is rolled back below the committed frontier (the
// cluster-manager bug class DPR exists to prevent) must be flagged. The
// metadata store still advertises the correct cut, so only the end-to-end
// read-back can notice — exactly the checker's job.
func TestChaosCheckerCatchesViolation(t *testing.T) {
	cfg := Config{
		DFaster:    2,
		DRedis:     0,
		Partitions: 16,
		Checkpoint: 2 * time.Millisecond,
		Finder:     metadata.FinderExact,
	}
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	defer h.Close()

	r, err := newSessionRunner(0, h, 1)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer r.close()

	// Several settled write rounds so the victim's durable position moves
	// well past its midpoint: halving it must erase committed data.
	for round := 0; round < 6; round++ {
		writeKeys(r, 32)
		if err := r.settle(10 * time.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		time.Sleep(15 * time.Millisecond)
	}

	wl, good, bad, err := h.InjectSkippedRollback(0)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	t.Logf("injected skipped rollback on world-line %d: good cut %v, applied cut %v", wl, good, bad)
	// The checker can only be judged on a loss that happened: straight from
	// the stores, the injection must have erased some committed write.
	if n := h.erasedCommitted(r); n == 0 {
		t.Fatalf("the injection erased no committed write (good cut %v, applied %v): nothing for the checker to catch", good, bad)
	} else {
		t.Logf("the injection erased %d committed keys", n)
	}

	// Let the session learn about the new world-line. A fully-settled
	// session loses nothing to the (advertised, correct) recovered cut, so
	// the transition is lossless and surfaces no survival error — it simply
	// adopts the new world-line; only the end-to-end read-back can notice
	// the skipped rollback.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := r.client.Session().RefreshCommit(); err != nil {
			r.handleErr(err)
			break
		}
		if r.client.Session().Tracker().WorldLine() >= wl {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never observed the injected recovery round")
		}
		time.Sleep(2 * time.Millisecond)
	}

	r.readback()

	violations := r.violations()
	if len(violations) == 0 {
		t.Fatalf("checker missed a rollback below the committed frontier (good cut %v, applied %v)", good, bad)
	}
	t.Logf("checker caught the injected violation:\n  %s", strings.Join(violations, "\n  "))
}

// erasedCommitted counts the keys of r's session whose newest committed
// write no worker's store holds any more, read straight from the stores: the
// checker's answer key for a loss it must flag.
func (h *Harness) erasedCommitted(r *sessionRunner) int {
	var sessions []*kv.Session
	for _, slot := range h.slots {
		if slot.df != nil {
			sess := slot.df.Store().NewSession()
			defer sess.Close()
			sessions = append(sessions, sess)
		}
	}
	r.chk.mu.Lock()
	defer r.chk.mu.Unlock()
	erased := 0
	for key, kh := range r.chk.keys {
		if kh.floorIdx < 0 {
			continue
		}
		held := false
		for _, sess := range sessions {
			val, status, _ := sess.Read([]byte(key), 0)
			if wr, ok := kh.byValue[string(val)]; status == kv.StatusOK && ok && wr.idx >= kh.floorIdx {
				held = true
			}
		}
		if !held {
			erased++
		}
	}
	return erased
}
