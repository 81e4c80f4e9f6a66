package libdpr_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/obs"
)

// deafMeta is a metadata service that loses every announcement.
type deafMeta struct{ metadata.Service }

func (deafMeta) AnnounceCommit(core.WorkerID, core.WorldLine, core.Version) {}

// roundRig is two workers over timedStores on one approximate-finder store:
// a version commits when both have persisted it.
type roundRig struct {
	a, b *pumpRig
}

func newRoundRig(t *testing.T, commitA, commitB time.Duration, cfgB libdpr.WorkerConfig, wrap func(metadata.Service) metadata.Service) *roundRig {
	t.Helper()
	var meta metadata.Service = metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	if wrap != nil {
		meta = wrap(meta)
	}
	return &roundRig{
		a: newPumpRigOn(t, newTimedStore(commitA), libdpr.WorkerConfig{}, 1, meta),
		b: newPumpRigOn(t, newTimedStore(commitB), cfgB, 2, meta),
	}
}

// flood keeps the given workers dirty for d, each from its own goroutine, the
// second starting offset later than the first: left to their own clocks the
// two pumps would stay that far apart.
func flood(t *testing.T, d, offset time.Duration, rigs ...*pumpRig) {
	var wg sync.WaitGroup
	for i, r := range rigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i) * offset)
			r.keepDirty(t, d)
		}()
	}
	wg.Wait()
}

// round is one version both workers sealed: from the first of the two seals
// starting to the second of them landing.
type round struct {
	v      core.Version
	spread time.Duration
}

// rounds pairs the two workers' seals by version and returns, besides the
// rounds, how many seals had no counterpart (a worker that closed a version
// its peer skipped).
func (r *roundRig) rounds() (both []round, unpaired int) {
	as, _ := r.a.so.spans()
	bs, _ := r.b.so.spans()
	byV := make(map[core.Version]sealSpan, len(bs))
	for _, s := range bs {
		byV[s.v] = s
	}
	for _, sa := range as {
		sb, ok := byV[sa.v]
		if !ok {
			unpaired++
			continue
		}
		delete(byV, sa.v)
		first, last := sa.start, sa.end
		if sb.start.Before(first) {
			first = sb.start
		}
		if sb.end.After(last) {
			last = sb.end
		}
		both = append(both, round{sa.v, last.Sub(first)})
	}
	return both, unpaired + len(byV)
}

func medianSpread(rs []round) time.Duration {
	ds := make([]time.Duration, len(rs))
	for i, r := range rs {
		ds[i] = r.spread
	}
	return median(ds)
}

// TestRoundJoin: two busy workers whose pumps start out of phase. The first to
// close a version announces it and the other closes the same version at once,
// so both have persisted it within 1.5 seals of the first trigger, round after
// round, and neither ever closes a version the other skips.
func TestRoundJoin(t *testing.T) {
	const commit = 2 * time.Millisecond
	const period = (1 + libdpr.PumpGapSeals) * commit
	withinBound(t, func(t *testing.T) error {
		r := newRoundRig(t, commit, commit, libdpr.WorkerConfig{}, nil)
		flood(t, 210*period, period/2, r.a, r.b)
		both, unpaired := r.rounds()
		joined := r.a.w.DebugState("test").RoundsJoined + r.b.w.DebugState("test").RoundsJoined
		t.Logf("%d rounds, %d seals without a counterpart, %d joins, median spread %v",
			len(both), unpaired, joined, medianSpread(both))
		if len(both) < 200 {
			return fmt.Errorf("%d rounds in %v, want 200", len(both), 210*period)
		}
		// The first seal of the worker that starts late and the last of the one
		// that stops late have no counterpart; nothing in between may.
		if unpaired > 2 {
			return fmt.Errorf("%d seals closed a version the peer skipped: the workers did not hold equal versions", unpaired)
		}
		late := 0
		for _, rd := range both[1:] {
			if rd.spread > commit+commit/2 {
				late++
			}
		}
		if late > len(both)/10 {
			return fmt.Errorf("%d of %d rounds took more than 1.5 seals from first trigger to both persisted (median %v)",
				late, len(both), medianSpread(both))
		}
		if joined < uint64(len(both))/2 {
			return fmt.Errorf("%d joins in %d rounds", joined, len(both))
		}
		return nil
	})
}

// TestIdleWorkerDoesNotJoin: a worker with nothing unsealed ignores the rounds
// its busy peer opens. It seals at its heartbeat, as before, and its device
// sees no write in between.
func TestIdleWorkerDoesNotJoin(t *testing.T) {
	const commit, heartbeat, run = 2 * time.Millisecond, 100 * time.Millisecond, 350 * time.Millisecond
	r := newRoundRig(t, commit, commit, libdpr.WorkerConfig{CheckpointInterval: heartbeat}, nil)
	start := time.Now()
	r.a.keepDirty(t, run)
	elapsed := time.Since(start)
	busy, _ := r.a.so.spans()
	idle, folded := r.b.so.spans()
	if len(busy) < 10 {
		t.Fatalf("the busy worker sealed %d times in %v", len(busy), elapsed)
	}
	if most := int(elapsed/heartbeat) + 1; len(idle) > most || folded != 0 {
		t.Fatalf("the idle worker sealed %d times (+%d folded) in %v next to %d rounds; its heartbeat allows %d",
			len(idle), folded, elapsed, len(busy), most)
	}
	if st := r.b.w.DebugState("test"); st.RoundsInitiated+st.RoundsJoined != uint64(len(idle)) {
		t.Fatalf("the idle worker counts %d+%d commits for %d seals", st.RoundsInitiated, st.RoundsJoined, len(idle))
	}
}

// TestSlowPeerKeepsItsDutyCycle: a worker whose seals take twenty times its
// peer's is asked to join a round every time it looks up. It joins — it seals
// sooner than its own gap would let it — but never before it has rested as
// long as its last seal took: at most half its time goes to sealing, and no
// seal follows another back to back.
func TestSlowPeerKeepsItsDutyCycle(t *testing.T) {
	const fast, slow = 2 * time.Millisecond, 40 * time.Millisecond
	withinBound(t, func(t *testing.T) error {
		r := newRoundRig(t, fast, slow, libdpr.WorkerConfig{}, nil)
		flood(t, 25*slow, 0, r.a, r.b)
		seals, folded := r.b.so.spans()
		if folded != 0 {
			t.Fatalf("%d commits were requested of the slow worker while one was in flight", folded)
		}
		// A rest at least as long as the seal before it, every time, is a duty
		// cycle of at most a half.
		period := sealPeriodRested(t, seals, 1)
		t.Logf("slow worker: %d seals, median period %v, %d joins", len(seals), period,
			r.b.w.DebugState("test").RoundsJoined)
		if period > 3*slow {
			return fmt.Errorf("median period of the slow worker %v: it waited out its own gap (%v) instead of joining",
				period, (1+libdpr.PumpGapSeals)*slow)
		}
		return nil
	})
}

// TestLostAnnouncementStillAligns: with every announcement dropped, a worker
// learns that its peer closed a version when the peer has persisted it, and
// joins then — a round takes one seal longer and nothing waits for more.
func TestLostAnnouncementStillAligns(t *testing.T) {
	const commit = 2 * time.Millisecond
	const period = (1 + libdpr.PumpGapSeals) * commit
	withinBound(t, func(t *testing.T) error {
		r := newRoundRig(t, commit, commit, libdpr.WorkerConfig{},
			func(m metadata.Service) metadata.Service { return deafMeta{m} })
		flood(t, 60*period, period/2, r.a, r.b)
		both, unpaired := r.rounds()
		t.Logf("%d rounds, %d seals without a counterpart, median spread %v", len(both), unpaired, medianSpread(both))
		if len(both) < 40 {
			return fmt.Errorf("%d rounds in %v: the workers wait for announcements that never come", len(both), 60*period)
		}
		if unpaired > 2 {
			return fmt.Errorf("%d seals closed a version the peer skipped", unpaired)
		}
		if m := medianSpread(both); m > 3*commit {
			return fmt.Errorf("median round took %v, want about two seals of %v", m, commit)
		}
		return nil
	})
}

// TestPumpDeadlineFollowsAForcedSeal: a seal somebody else forces while the
// pump waits out its gap — here TriggerCommit — is a seal like any other: the
// pump's next one keeps the whole gap after it, instead of firing on the
// deadline computed before it.
func TestPumpDeadlineFollowsAForcedSeal(t *testing.T) {
	const commit = 3 * time.Millisecond
	r := newPumpRig(t, newTimedStore(commit), libdpr.WorkerConfig{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.keepDirty(t, 450*time.Millisecond)
	}()
	forced := make(map[core.Version]bool)
	for i := 0; i < 12; i++ {
		// 7 ms into a 12 ms cycle, and drifting: the forced seals land all over
		// the pump's gap.
		time.Sleep(7*time.Millisecond + time.Duration(i)*time.Millisecond)
		boundary := r.so.CurrentVersion()
		if err := r.w.TriggerCommit(); err != nil {
			t.Fatal(err)
		}
		r.so.awaitPersisted(boundary)
		forced[boundary] = true
	}
	<-done
	seals, _ := r.so.spans()
	inGap := 0
	for i := 1; i < len(seals); i++ {
		took := seals[i-1].end.Sub(seals[i-1].start)
		gap := seals[i].start.Sub(seals[i-1].end)
		if forced[seals[i].v] {
			if gap < libdpr.PumpGapSeals*took {
				inGap++
			}
			continue
		}
		if gap < libdpr.PumpGapSeals*took {
			t.Fatalf("the pump sealed version %d only %v after a seal that took %v (forced: %v), want %d times that",
				seals[i].v, gap, took, forced[seals[i-1].v], libdpr.PumpGapSeals)
		}
	}
	if inGap < 3 {
		t.Fatalf("only %d of the forced seals landed inside the pump's gap: nothing was tested", inGap)
	}
}

// TestForcedSealBeforeTheNotificationIsTimed is a red of
// TestPumpDeadlineFollowsAForcedSeal, forced: a commit forced after a seal has
// landed, but before that seal's persist notification has run, gets a seal of
// its own once the notification has returned, and that seal is timed from its
// start. The red's class: a worker that timed seals itself started the clock
// where it thought a seal began, and a late notification made it think wrong,
// so a seal's duration, and with it the pump's gap, came out short.
func TestForcedSealBeforeTheNotificationIsTimed(t *testing.T) {
	const commit = 20 * time.Millisecond
	so := newTimedStore(commit)
	reg := obs.NewRegistry()
	r := newPumpRig(t, so, libdpr.WorkerConfig{Obs: reg})
	r.w.SuppressDirtyWake()
	held := make(chan struct{})
	so.hold.Store(&held)
	if err := r.w.TriggerCommit(); err != nil {
		t.Fatal(err)
	}
	for so.PersistedVersion() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// The first seal has landed and its notification is held, so the seal is
	// still under way: a forced commit asks for the second, whose notification
	// is held in turn.
	heldToo := make(chan struct{})
	so.hold.Store(&heldToo)
	if err := r.w.TriggerCommit(); err != nil {
		t.Fatal(err)
	}
	close(held)
	for so.PersistedVersion() < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	// The pump's commit, while the second seal is under way, is declined.
	if started, err := r.w.CommitIdle(so.PersistedVersion()); started || err != nil {
		t.Fatalf("the pump's commit while a seal is under way: started %v, %v", started, err)
	}
	so.hold.Store(nil)
	close(heldToo)
	for so.told.Load() < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	if seals, _ := so.spans(); len(seals) != 2 {
		t.Fatalf("%d seals, want the first and the forced one", len(seals))
	}
	h := reg.Histogram("dpr_seal_seconds", "", obs.L("worker", "1")).Snapshot()
	if mean := time.Duration(h.Sum/h.Count) * time.Microsecond; mean < commit {
		t.Fatalf("dpr_seal_seconds: mean %v over %d samples; want every seal whole, %v", mean, h.Count, commit)
	}
	if gap := r.w.DebugState("test").CommitGapMS; gap < float64(libdpr.PumpGapSeals*commit/time.Millisecond) {
		t.Fatalf("commit gap %.3f ms after the forced seal, want %d seals of %v", gap, libdpr.PumpGapSeals, commit)
	}
}
