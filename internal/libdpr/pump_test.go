package libdpr_test

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/hrtimer"
	"dpr/internal/libdpr"
	"dpr/internal/libdpr/statetest"
	"dpr/internal/metadata"
	"dpr/internal/obs"
)

// timedStore is a StateObject whose commit takes a configurable time and
// nothing else: single-flight like kv — a BeginCommit above the version in
// flight runs one more seal right after it — it announces each seal through
// OnPersist, timed, and records when every commit started and ended.
type timedStore struct {
	commit time.Duration
	// parked makes a commit a wait the process can go idle in, on hrtimer as a
	// device's completion is. Otherwise the commit's goroutine yields until
	// the time is up: one more runnable goroutine for as long as a seal lasts,
	// which the flood tests' timings were taken with.
	parked bool
	// silent makes the next n commits vanish: version shifted, nothing
	// persisted, nobody told — a storage error as the worker sees it.
	silent atomic.Int32
	// hold, when set as a seal lands, keeps that seal's persist notification
	// back until it is closed: the persisted version has advanced, but the
	// worker has not been told, and the seal is still under way.
	hold atomic.Pointer[chan struct{}]
	// told counts the persist notifications the worker has returned from.
	told atomic.Int32

	current   atomic.Uint64
	persisted atomic.Uint64
	notify    atomic.Pointer[func(core.Version, time.Duration)]

	mu     sync.Mutex
	landed *sync.Cond // on mu: a seal was appended to seals
	// running is set from a seal's start until its notification has
	// returned; next is the highest version a BeginCommit asked for meanwhile.
	running bool
	next    core.Version
	folded  int // BeginCommit calls that found a commit in flight
	seals   []sealSpan
}

type sealSpan struct {
	v          core.Version
	start, end time.Time
	// forced: a BeginCommit started the seal, itself or as the follow-up of
	// one that found a seal running; otherwise the pump's BeginCommitIdle did.
	forced bool
}

func newTimedStore(commit time.Duration) *timedStore {
	s := &timedStore{commit: commit}
	s.landed = sync.NewCond(&s.mu)
	s.current.Store(1)
	return s
}

func (s *timedStore) CurrentVersion() core.Version   { return core.Version(s.current.Load()) }
func (s *timedStore) PersistedVersion() core.Version { return core.Version(s.persisted.Load()) }
func (s *timedStore) Restore(core.Version) error     { return nil }
func (s *timedStore) OnPersist(fn func(core.Version, time.Duration)) {
	s.notify.Store(&fn)
}

func (s *timedStore) BeginCommit(v core.Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		s.folded++
		s.next = max(s.next, v)
		return nil
	}
	s.seal(v, true)
	return nil
}

func (s *timedStore) BeginCommitIdle(v, persisted core.Version) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running || s.PersistedVersion() != persisted {
		return false, nil
	}
	s.seal(v, false)
	return true, nil
}

// seal starts the seal of v, with mu held.
func (s *timedStore) seal(v core.Version, forced bool) {
	s.running = true
	s.current.Store(uint64(v) + 1)
	start := time.Now()
	finish := func() {
		hold := s.hold.Load()
		s.mu.Lock()
		end, ok := time.Now(), s.silent.Add(-1) < 0
		if ok {
			s.seals = append(s.seals, sealSpan{v, start, end, forced})
			s.persisted.Store(uint64(v))
		}
		s.mu.Unlock()
		if ok {
			if hold != nil {
				<-*hold
			}
			(*s.notify.Load())(v, end.Sub(start))
			s.told.Add(1)
		}
		s.mu.Lock()
		next := s.next
		s.running, s.next = false, 0
		if next > v {
			s.seal(next, true)
		}
		s.mu.Unlock()
		s.landed.Broadcast() // the worker hears first, as from a device
	}
	if s.parked {
		hrtimer.AfterFunc(s.commit, finish)
		return
	}
	go func() {
		for time.Since(start) < s.commit {
			runtime.Gosched()
		}
		finish()
	}()
}

// sealed is the number of seals that have landed. A loop that yields until
// the next one polls this and not spans: copying the list at every yield keeps
// the collector running, and its workers take a processor from the pump.
func (s *timedStore) sealed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seals)
}

// awaitSeal parks until more than n seals have landed: the caller leaves the
// process idle while it waits, as a paced session does.
func (s *timedStore) awaitSeal(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.seals) <= n {
		s.landed.Wait()
	}
}

// awaitPersisted parks until version v has landed and the worker has been
// told.
func (s *timedStore) awaitPersisted(v core.Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.PersistedVersion() < v {
		s.landed.Wait()
	}
}

func (s *timedStore) spans() (seals []sealSpan, folded int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sealSpan(nil), s.seals...), s.folded
}

// pumpRig is one worker over a timedStore, with a heartbeat far enough out
// that every seal in a test is the pump's.
type pumpRig struct {
	w    *libdpr.Worker
	so   *timedStore
	lane *libdpr.ExecLane
	next uint64
}

func newPumpRig(t *testing.T, so *timedStore, cfg libdpr.WorkerConfig) *pumpRig {
	t.Helper()
	return newPumpRigOn(t, so, cfg, 1, metadata.NewStore(metadata.Config{}))
}

// newPumpRigOn is newPumpRig as worker id of a metadata service it shares.
func newPumpRigOn(t *testing.T, so *timedStore, cfg libdpr.WorkerConfig, id core.WorkerID, meta metadata.Service) *pumpRig {
	t.Helper()
	cfg.ID, cfg.Addr = id, fmt.Sprintf("inproc-%d", id)
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 10 * time.Second
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	w, err := libdpr.NewWorker(cfg, so, meta)
	if err != nil {
		t.Fatal(err)
	}
	r := &pumpRig{w: w, so: so, lane: w.NewLane()}
	t.Cleanup(func() {
		r.lane.Close()
		w.Stop()
	})
	return r
}

// execute runs one empty guarded batch standing for ops operations: the path
// that marks the worker dirty.
func (r *pumpRig) execute(t *testing.T, ops uint32) {
	h := libdpr.BatchHeader{SessionID: 7, SeqStart: r.next, NumOps: ops}
	r.next += uint64(ops)
	if _, err := r.w.AdmitBatchGuarded(h, r.lane); err != nil {
		t.Error(err)
		return
	}
	r.w.ReleaseBatch(h, r.lane, true)
}

// keepDirty executes 64-operation batches back to back for d: a flood. It
// yields between batches: that is what a serving goroutine does at every
// socket read, and what keeps the runtime's timers on time.
func (r *pumpRig) keepDirty(t *testing.T, d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		r.execute(t, 64)
		runtime.Gosched()
	}
}

// withinBound runs a timing measurement up to three times and fails only if
// every attempt breaks its upper bound: a bound on elapsed time measures the
// host's load as much as the pump, and the rest of the suite runs alongside.
// Lower bounds (a gap at least as long as a seal, a floor between starts) hold
// under any load and are asserted outright inside the measurement.
func withinBound(t *testing.T, measure func(t *testing.T) error) {
	t.Helper()
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = measure(t); err == nil {
			return
		}
		t.Logf("attempt %d: %v", attempt+1, err)
	}
	t.Fatal(err)
}

func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestPumpSealsIdleWorkerAtOnce: a write landing on a worker whose last seal
// is older than the gap it earned starts a seal with no added wait — the
// fixed 2 ms floor would hold it back.
func TestPumpSealsIdleWorkerAtOnce(t *testing.T) {
	const commit = 200 * time.Microsecond
	withinBound(t, func(t *testing.T) error {
		r := newPumpRig(t, newTimedStore(commit), libdpr.WorkerConfig{})
		var waits []time.Duration
		for i := 0; i < 21; i++ {
			n, _ := r.so.spans()
			marked := time.Now()
			r.execute(t, 1)
			for {
				seals, _ := r.so.spans()
				if len(seals) > len(n) {
					waits = append(waits, seals[len(seals)-1].start.Sub(marked))
					break
				}
				runtime.Gosched()
			}
			// Idle for longer than the gap one 200 µs seal earns, well under 2 ms.
			for idle := time.Now(); time.Since(idle) < (libdpr.PumpGapSeals+2)*commit; {
				runtime.Gosched()
			}
		}
		if first := waits[0]; first > time.Millisecond {
			return fmt.Errorf("first write on a fresh worker waited %v for its seal to start", first)
		}
		if m := median(waits); m > 500*time.Microsecond {
			return fmt.Errorf("median wait from write to seal start on an idle worker = %v, want no added wait", m)
		}
		return nil
	})
}

// sealPeriod is the median distance between consecutive seal starts. It also
// checks the duty cycle outright: no seal started sooner after its
// predecessor ended than PumpGapSeals times what that one took.
func sealPeriod(t *testing.T, seals []sealSpan) time.Duration {
	t.Helper()
	return sealPeriodRested(t, seals, libdpr.PumpGapSeals)
}

// sealPeriodRested is sealPeriod for a worker that owes every seal a rest of
// restSeals times its duration.
func sealPeriodRested(t *testing.T, seals []sealSpan, restSeals time.Duration) time.Duration {
	t.Helper()
	if len(seals) < 3 {
		t.Fatalf("only %d seals", len(seals))
	}
	periods := make([]time.Duration, 0, len(seals)-1)
	for i := 1; i < len(seals); i++ {
		periods = append(periods, seals[i].start.Sub(seals[i-1].start))
		// The worker times a seal from just before the store starts it to
		// the store's announcement, so its measure is never the shorter one.
		took := seals[i-1].end.Sub(seals[i-1].start)
		if gap := seals[i].start.Sub(seals[i-1].end); gap < restSeals*took {
			t.Fatalf("seal %d started %v after a seal that took %v, want %d times that",
				i, gap, took, restSeals)
		}
	}
	return median(periods)
}

// TestPumpNeverSealsBackToBack: with a 40 ms commit (dredis's snapshot) and
// continuous writes, every seal is followed by a pause PumpGapSeals times as
// long as the seal — never the back-to-back snapshots a fixed short interval
// causes.
func TestPumpNeverSealsBackToBack(t *testing.T) {
	const commit = 40 * time.Millisecond
	r := newPumpRig(t, newTimedStore(commit), libdpr.WorkerConfig{})
	r.keepDirty(t, 900*time.Millisecond)
	seals, folded := r.so.spans()
	if folded != 0 {
		t.Fatalf("%d commits were requested while one was in flight", folded)
	}
	sealPeriod(t, seals)
	if st := r.w.DebugState("test"); st.CommitPump != "adaptive" || st.CommitGapMS < 40 {
		t.Fatalf("/debug/dpr: pump %q gap %v ms, want adaptive and at least the 40 ms a seal takes",
			st.CommitPump, st.CommitGapMS)
	}
}

// TestPumpFastCommitPeriod: a 200 µs commit is paced by its own duration, not
// by a constant — one seal per 1+PumpGapSeals durations, well within a
// millisecond, whether one write trails each seal or a flood does.
func TestPumpFastCommitPeriod(t *testing.T) {
	const commit = 200 * time.Microsecond
	const want = (1 + libdpr.PumpGapSeals) * commit
	withinBound(t, func(t *testing.T) error {
		r := newPumpRig(t, newTimedStore(commit), libdpr.WorkerConfig{})
		for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
			n := r.so.sealed()
			r.execute(t, 1)
			for r.so.sealed() == n {
				runtime.Gosched()
			}
		}
		trickle, _ := r.so.spans()
		slow := sealPeriod(t, trickle)
		r.keepDirty(t, 200*time.Millisecond)
		all, _ := r.so.spans()
		fast := sealPeriod(t, all[len(trickle):])
		t.Logf("at a %v commit: trickle %d seals, median period %v; flood %d seals, median period %v",
			commit, len(trickle), slow, len(all)-len(trickle), fast)
		for _, period := range []time.Duration{slow, fast} {
			if period > want+want/2 || period > time.Millisecond {
				return fmt.Errorf("median seal period %v, want about %v and <= 1ms", period, want)
			}
		}
		return nil
	})
}

// wakeUp is how late a wait in an idle process may end: a thread woken from
// the poller and a goroutine or two made runnable. Doubled under the race
// detector (race_test.go).
var wakeUp = 100 * time.Microsecond

// TestPumpIdleTricklePeriod is the trickle of TestPumpFastCommitPeriod in a
// process that goes idle, as a paced server's does: the commit is a wait on
// hrtimer and the writer parks until the seal lands. Every wait then ends a
// thread's wake-up late (35-55 µs on a quiet two-core host), and a period
// holds five of them: the seal, which the pump measures and multiplies by
// PumpGapSeals, and the deadline's own. So the period is 1.00-1.20 ms here,
// not within the millisecond; the bound allows each wait wakeUp. With the
// deadline alone on a bare runtime timer, which an idle process rounds up to
// the poller's whole milliseconds, the period is 1.39-1.40 ms.
func TestPumpIdleTricklePeriod(t *testing.T) {
	const commit = 200 * time.Microsecond
	const want = (1 + libdpr.PumpGapSeals) * commit
	bound := want + (2+libdpr.PumpGapSeals)*wakeUp
	withinBound(t, func(t *testing.T) error {
		so := newTimedStore(commit)
		so.parked = true
		r := newPumpRig(t, so, libdpr.WorkerConfig{})
		for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
			n := so.sealed()
			r.execute(t, 1)
			so.awaitSeal(n)
		}
		seals, _ := so.spans()
		period := sealPeriod(t, seals)
		t.Logf("at a %v commit, idle: %d seals, median period %v", commit, len(seals), period)
		if period > bound {
			return fmt.Errorf("median seal period %v, want %v and a wake-up per wait, <= %v", period, want, bound)
		}
		return nil
	})
}

// TestPumpOutlivesSilentSealFailure: a commit that fails never announces
// itself. The store is idle again once it has failed, so the heartbeat, or
// the pump once it has waited a heartbeat for the landing, retries it, and
// the pump seals on from there.
func TestPumpOutlivesSilentSealFailure(t *testing.T) {
	so := newTimedStore(200 * time.Microsecond)
	so.silent.Store(1)
	r := newPumpRig(t, so, libdpr.WorkerConfig{CheckpointInterval: 30 * time.Millisecond})
	r.keepDirty(t, 250*time.Millisecond)
	if seals, _ := so.spans(); len(seals) < 2 {
		t.Fatalf("%d seals in 250 ms after one silent failure: the pump is wedged", len(seals))
	}
}

// TestFailedSealDoesNotTimeItsRetry: a commit that fails silently is retried
// only by the heartbeat here, and the retry is timed from its own start,
// whoever started the failed attempt — an earlier heartbeat (pump off), or the
// pump inside the same heartbeat interval: dpr_seal_seconds holds one sample,
// of about one commit, not of a heartbeat interval and a commit.
func TestFailedSealDoesNotTimeItsRetry(t *testing.T) {
	const commit, heartbeat = time.Millisecond, 40 * time.Millisecond
	for _, pump := range []bool{false, true} {
		t.Run(fmt.Sprintf("pump=%v", pump), func(t *testing.T) {
			so := newTimedStore(commit)
			so.silent.Store(1)
			reg := obs.NewRegistry()
			r := newPumpRig(t, so, libdpr.WorkerConfig{CheckpointInterval: heartbeat, Obs: reg})
			if pump {
				r.execute(t, 1) // the pump starts the seal that fails
			} else {
				r.w.SuppressDirtyWake()
			}
			for deadline := time.Now().Add(5 * time.Second); so.PersistedVersion() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the heartbeat never retried the failed commit")
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(5 * time.Millisecond) // the notification follows the version
			h := reg.Histogram("dpr_seal_seconds", "", obs.L("worker", "1")).Snapshot()
			if max := time.Duration(h.Max) * time.Microsecond; h.Count != 1 || max >= heartbeat/2 {
				t.Fatalf("dpr_seal_seconds: %d samples, max %v; want the retry alone, near %v", h.Count, max, commit)
			}
		})
	}
}

// TestSlowSealIsTimedWhole: a seal that takes most of a heartbeat interval
// and has a heartbeat land inside it is under way, not dead: the heartbeat
// starts nothing on top of it, and dpr_seal_seconds holds its whole duration,
// not the part after the heartbeat.
func TestSlowSealIsTimedWhole(t *testing.T) {
	const commit, heartbeat = 30 * time.Millisecond, 40 * time.Millisecond
	reg := obs.NewRegistry()
	r := newPumpRig(t, newTimedStore(commit), libdpr.WorkerConfig{CheckpointInterval: heartbeat, Obs: reg})
	r.w.SuppressDirtyWake()
	time.Sleep(heartbeat / 2) // the seal spans the first heartbeat
	if err := r.w.TriggerCommit(); err != nil {
		t.Fatal(err)
	}
	seals := reg.Histogram("dpr_seal_seconds", "", obs.L("worker", "1"))
	for deadline := time.Now().Add(5 * time.Second); seals.Count() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the commit never sealed")
		}
		time.Sleep(time.Millisecond)
	}
	// Later heartbeats may have sealed again by now: every sample is whole.
	h := seals.Snapshot()
	if mean := time.Duration(h.Sum/h.Count) * time.Microsecond; mean < commit {
		t.Fatalf("dpr_seal_seconds: mean %v over %d samples; want the whole %v seal", mean, h.Count, commit)
	}
}

// TestFollowUpSealIsTimed: a commit asked for while a seal is under way, above
// the version in flight, runs as one more seal right after it, and
// dpr_seal_seconds holds one sample per seal, each that seal's own span — at
// least one commit, and for the follow-up not the first seal's too: it is
// timed from its own start, which only the store knows.
func TestFollowUpSealIsTimed(t *testing.T) {
	const commit = 20 * time.Millisecond
	so := newTimedStore(commit)
	reg := obs.NewRegistry()
	r := newPumpRig(t, so, libdpr.WorkerConfig{Obs: reg})
	r.w.SuppressDirtyWake()
	for i := 0; i < 2; i++ {
		if err := r.w.TriggerCommit(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(commit / 2)
	}
	for so.told.Load() < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	seals, _ := so.spans()
	if len(seals) != 2 {
		t.Fatalf("%d seals, want the first and its follow-up", len(seals))
	}
	// The histogram keeps whole microseconds: the least sample is the sum less
	// the most, and the spans are compared to within one microsecond each.
	h := reg.Histogram("dpr_seal_seconds", "", obs.L("worker", "1")).Snapshot()
	least, most := time.Duration(h.Sum-h.Max)*time.Microsecond, time.Duration(h.Max)*time.Microsecond
	a, b := seals[0].end.Sub(seals[0].start), seals[1].end.Sub(seals[1].start)
	near := func(got, want time.Duration) bool { return got <= want && want-got < 2*time.Microsecond }
	if h.Count != 2 || least < commit || !near(least, min(a, b)) || !near(most, max(a, b)) {
		t.Fatalf("dpr_seal_seconds: %d samples from %v to %v; want one per seal, at least %v each: %v and %v",
			h.Count, least, most, commit, a, b)
	}
}

// TestStateObjectContract holds timedStore, the double the pump tests run
// on, to the store's side of the commit contract.
func TestStateObjectContract(t *testing.T) {
	statetest.Run(t, newTimedStore(time.Millisecond))
}
