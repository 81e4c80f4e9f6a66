package scale

import (
	"os"
	"strconv"
	"testing"

	"dpr/internal/core"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
)

// sessionsUnderTest returns the population size: 10k by default (fast enough
// for every CI run, -race included), overridable with SCALE_SESSIONS for the
// 100k PR smoke and the nightly 1M run.
func sessionsUnderTest(t *testing.T) int {
	if s := os.Getenv("SCALE_SESSIONS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad SCALE_SESSIONS %q", s)
		}
		return n
	}
	return 10_000
}

// TestScaleSmoke drives the full harness against all three finders. The
// harness itself enforces the correctness invariants every round: no closed
// session acts, every evicted session is quiescent, and no rehydrated
// session ever observes a regressed committed floor.
func TestScaleSmoke(t *testing.T) {
	n := sessionsUnderTest(t)
	for _, fk := range []metadata.FinderKind{metadata.FinderApproximate, metadata.FinderExact, metadata.FinderHybrid} {
		fk := fk
		t.Run(fk.String(), func(t *testing.T) {
			res, err := Run(Config{
				Sessions:       n,
				Workers:        8,
				Finder:         fk,
				Rounds:         15,
				ActivePerRound: 512,
				OpsPerActive:   2,
				ChurnPerRound:  32,
				Relaxed:        true,
				Seed:           42,
			})
			if err != nil {
				t.Fatal(err)
			}
			wantOps := uint64(15 * 512 * 2)
			if res.Ops != wantOps {
				t.Fatalf("ops = %d, want %d", res.Ops, wantOps)
			}
			if res.CutLatencyMax == 0 {
				t.Fatal("no cut latency recorded")
			}
			t.Logf("%s", res)
		})
	}
}

// TestScaleStrict runs the strict-DPR variant (no exception lists) at a
// smaller population; quiescence at eviction is a stronger statement there.
func TestScaleStrict(t *testing.T) {
	res, err := Run(Config{
		Sessions:       2_000,
		Workers:        4,
		Finder:         metadata.FinderHybrid,
		Rounds:         10,
		ActivePerRound: 128,
		OpsPerActive:   3,
		ChurnPerRound:  8,
		Relaxed:        false,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", res)
}

// TestIdleFootprint pins memory-per-idle-session. The archived
// representation must cost O(few words): the SessionArchive struct is 64
// bytes, so with slice growth slack the per-session cost must stay under 128
// bytes — an order of magnitude below a hydrated Session.
func TestIdleFootprint(t *testing.T) {
	fp, err := IdleFootprint(50_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bytes/idle-session: hydrated=%.0f archived=%.0f", fp.HydratedBytes, fp.ArchivedBytes)
	if fp.ArchivedBytes > 128 {
		t.Fatalf("archived idle session costs %.0f bytes, want <= 128", fp.ArchivedBytes)
	}
	if fp.ArchivedBytes >= fp.HydratedBytes/2 {
		t.Fatalf("archiving saves too little: hydrated %.0f vs archived %.0f bytes",
			fp.HydratedBytes, fp.ArchivedBytes)
	}
}

// TestRehydrateFloorAcrossRecovery: a session evicted before a recovery and
// rehydrated after it must keep its committed floor — the dormant session
// had no uncommitted suffix, so the rollback erases nothing of it, and the
// ordinary failure path must surface no survival error once its committed
// prefix is inside the recovered cut.
func TestRehydrateFloorAcrossRecovery(t *testing.T) {
	store := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	if err := store.RegisterWorker(1, "w1"); err != nil {
		t.Fatal(err)
	}
	s, err := libdpr.NewSession(store, true)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.NextBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteBatch(1, h, libdpr.BatchReply{Versions: []core.Version{3, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := store.ReportVersion(1, 3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RefreshCommit(); err != nil {
		t.Fatal(err)
	}
	st, ok := s.Evict()
	if !ok {
		t.Fatal("session should be quiescent")
	}
	if st.Archive.Committed != 2 {
		t.Fatalf("floor = %d, want 2", st.Archive.Committed)
	}

	// Cluster crosses a recovery while the session is dormant.
	wl, _ := store.BeginRecovery()
	store.CompleteRecoveryFor(wl)

	r := libdpr.ResumeSession(store, st)
	p, err := r.RefreshCommit()
	if err != nil {
		t.Fatalf("rehydrated session must survive the recovery cleanly: %v", err)
	}
	if p != 2 {
		t.Fatalf("rehydrated floor = %d, want 2", p)
	}
	if got, _ := r.Committed(); got < st.Archive.Committed {
		t.Fatalf("committed floor regressed across evict/recovery/rehydrate: %d < %d",
			got, st.Archive.Committed)
	}
}

// TestArchiveRefusesDirtySession: eviction must fail while state would be
// lost — uncommitted completions or in-flight operations.
func TestArchiveRefusesDirtySession(t *testing.T) {
	store := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	if err := store.RegisterWorker(1, "w1"); err != nil {
		t.Fatal(err)
	}
	s, err := libdpr.NewSession(store, true)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.NextBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Evict(); ok {
		t.Fatal("evicted a session with an in-flight batch")
	}
	if err := s.CompleteBatch(1, h, libdpr.BatchReply{Versions: []core.Version{1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Evict(); ok {
		t.Fatal("evicted a session with an uncommitted completion")
	}
}

// TestRehydrateCycleAllocs pins the allocation cost of one full dormant
// session activation — resume, one operation, fold the current cut, evict.
// This cycle runs ActivePerRound times per round at every population size;
// if it ever allocates O(cluster) or O(history) the metadata plane cannot
// hold a million dormant sessions, so the budget is a small constant: the
// session and tracker objects themselves plus per-op bookkeeping.
func TestRehydrateCycleAllocs(t *testing.T) {
	store := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	if err := store.RegisterWorker(1, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := store.ReportVersion(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	cut, _, wl, _ := store.State()

	arch := core.SessionArchive{NextSeq: 1, Relaxed: true}
	vbuf := [1]core.Version{1}
	cycle := func() {
		s := libdpr.ResumeSession(store, libdpr.SessionState{ID: 1, Archive: arch})
		h, err := s.NextBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CompleteBatch(1, h, libdpr.BatchReply{Versions: vbuf[:]}); err != nil {
			t.Fatal(err)
		}
		s.Tracker().AdvanceCommitted(wl, cut)
		st, ok := s.Evict()
		if !ok {
			t.Fatal("cycle session not quiescent")
		}
		arch = st.Archive
	}
	cycle() // warm up one-time paths (obs registration, map growth)
	allocs := testing.AllocsPerRun(200, cycle)
	t.Logf("rehydrate cycle: %.1f allocs", allocs)
	if allocs > 8 {
		t.Fatalf("rehydrate cycle allocates %.1f objects, budget 8 — "+
			"something on the activation path scales with cluster or history size", allocs)
	}
}
