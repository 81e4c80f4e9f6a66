package epoch

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/hrtimer"
)

func TestEnterExitBasics(t *testing.T) {
	tb := NewTable()
	s := tb.Register()
	if got := s.Era(); got != 0 {
		t.Fatalf("inactive slot era should be 0, got %d", got)
	}
	era := s.Enter()
	if era != 1 || s.Era() != 1 {
		t.Fatalf("expected era 1, got %d/%d", era, s.Era())
	}
	s.Exit()
	if s.Era() != 0 {
		t.Fatal("exit must deactivate slot")
	}
}

func TestBumpAndAllObserved(t *testing.T) {
	tb := NewTable()
	a := tb.Register()
	b := tb.Register()
	a.Enter()
	next := tb.Bump() // era 2
	if tb.AllObserved(next) {
		t.Fatal("a is active in era 1; era 2 not yet safe")
	}
	a.Exit()
	if !tb.AllObserved(next) {
		t.Fatal("all active slots drained; era 2 should be safe")
	}
	// New entries observe the new era and do not block safety.
	b.Enter()
	if !tb.AllObserved(next) {
		t.Fatal("entry at current era must not block")
	}
	b.Exit()
}

func TestUnregisterStopsBlocking(t *testing.T) {
	tb := NewTable()
	s := tb.Register()
	s.Enter()
	next := tb.Bump()
	if tb.AllObserved(next) {
		t.Fatal("active stale slot must block")
	}
	tb.Unregister(s)
	if !tb.AllObserved(next) {
		t.Fatal("unregistered slot must not block")
	}
}

func TestActiveCount(t *testing.T) {
	tb := NewTable()
	a := tb.Register()
	b := tb.Register()
	if tb.ActiveCount() != 0 {
		t.Fatal("no active slots yet")
	}
	a.Enter()
	b.Enter()
	if tb.ActiveCount() != 2 {
		t.Fatalf("expected 2 active, got %d", tb.ActiveCount())
	}
	a.Exit()
	if tb.ActiveCount() != 1 {
		t.Fatalf("expected 1 active, got %d", tb.ActiveCount())
	}
	b.Exit()
}

// TestConcurrentSafety drives many goroutines entering/exiting while a
// coordinator bumps eras and waits for safety; verifies no operation that
// entered before a bump is ever considered drained while still active.
func TestConcurrentSafety(t *testing.T) {
	tb := NewTable()
	const goroutines = 8
	var stop atomic.Bool
	var wg sync.WaitGroup
	var violations atomic.Int64

	type opState struct {
		era  uint64
		done atomic.Bool
	}
	var mu sync.Mutex
	inflight := make(map[*opState]bool)

	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := tb.Register()
			defer tb.Unregister(slot)
			for !stop.Load() {
				era := slot.Enter()
				st := &opState{era: era}
				mu.Lock()
				inflight[st] = true
				mu.Unlock()
				// simulated work
				for j := 0; j < 100; j++ {
					_ = j
				}
				st.done.Store(true)
				mu.Lock()
				delete(inflight, st)
				mu.Unlock()
				slot.Exit()
			}
		}()
	}

	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		target := tb.Bump()
		for !tb.AllObserved(target) {
			time.Sleep(time.Microsecond)
		}
		// Safety: no in-flight op from an era before target may still be
		// running (they all must have drained or entered at >= target).
		mu.Lock()
		for st := range inflight {
			if st.era < target && !st.done.Load() {
				violations.Add(1)
			}
		}
		mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	if v := violations.Load(); v > 0 {
		t.Fatalf("%d epoch safety violations", v)
	}
}

// TestDrainWaitsForStraggler verifies the quiesce contract: Drain must not
// return while an operation that entered under an older era is still inside
// its protected section.
func TestDrainWaitsForStraggler(t *testing.T) {
	tb := NewTable()
	slot := tb.Register()
	inSection := make(chan struct{})
	release := make(chan struct{})
	var exited atomic.Bool
	go func() {
		slot.Enter()
		close(inSection)
		<-release
		exited.Store(true)
		slot.Exit()
	}()
	<-inSection
	drained := make(chan uint64, 1)
	go func() { drained <- tb.Drain() }()
	select {
	case <-drained:
		t.Fatal("Drain returned while a pre-bump operation was still active")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	target := <-drained
	if !exited.Load() {
		t.Fatal("Drain returned before the straggler exited")
	}
	if !tb.AllObserved(target) {
		t.Fatalf("era %d not observed after Drain returned", target)
	}
}

// TestDrainConcurrentAdvance hammers Drain from several goroutines while
// worker slots keep entering and exiting: every Drain must return, no section
// entered under an older era may still run when it does, and eras from
// concurrent drains must be distinct (each Drain bumps exactly once). What
// runs is read from the era Enter returned, not from AllObserved: an Enter
// that loaded the era just before a bump publishes it one store later, then
// re-publishes the newer one, so AllObserved can be false for that moment
// after a Drain has returned with nothing of the older era running.
func TestDrainConcurrentAdvance(t *testing.T) {
	tb := NewTable()
	const workers = 6
	const drainers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	var running [workers]atomic.Uint64 // era of the section in progress, 0 between
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := tb.Register()
			defer tb.Unregister(slot)
			for !stop.Load() {
				running[i].Store(slot.Enter())
				for j := 0; j < 50; j++ {
					_ = j
				}
				running[i].Store(0)
				slot.Exit()
			}
		}()
	}
	eras := make([][]uint64, drainers)
	for d := 0; d < drainers; d++ {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(100 * time.Millisecond)
			for time.Now().Before(deadline) {
				target := tb.Drain()
				for i := range running {
					if e := running[i].Load(); e != 0 && e < target {
						t.Errorf("drainer %d: a section of era %d still runs after Drain returned era %d", d, e, target)
						return
					}
				}
				eras[d] = append(eras[d], target)
			}
		}()
	}
	// Let the drainers finish, then stop the workers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(120 * time.Millisecond)
	stop.Store(true)
	<-done
	seen := make(map[uint64]int)
	for d := range eras {
		for _, e := range eras[d] {
			seen[e]++
		}
	}
	for e, n := range seen {
		if n > 1 {
			t.Fatalf("era %d returned by %d drains; each Drain must own its bump", e, n)
		}
	}
}

// TestDrainPublishesState checks the memory-ordering contract Drain is used
// for: a value atomically published before Drain is visible to every
// protected section that enters at or after the drained era. Each round
// publishes a larger value and drains; a section that entered at or after the
// last drain's era must read at least that drain's value.
func TestDrainPublishesState(t *testing.T) {
	tb := NewTable()
	var fence atomic.Uint64
	var drained atomic.Pointer[[2]uint64] // the last drain's era and the value published before it
	var violations atomic.Int64
	var wg sync.WaitGroup
	var stop atomic.Bool
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := tb.Register()
			defer tb.Unregister(slot)
			for !stop.Load() {
				era := slot.Enter()
				if d := drained.Load(); d != nil && era >= d[0] && fence.Load() < d[1] {
					violations.Add(1)
				}
				slot.Exit()
			}
		}()
	}
	for round := uint64(1); round <= 100; round++ {
		fence.Store(round)
		drained.Store(&[2]uint64{tb.Drain(), round})
	}
	stop.Store(true)
	wg.Wait()
	if v := violations.Load(); v > 0 {
		t.Fatalf("%d fence visibility violations", v)
	}
}

// TestDrainBesideBusyNeighbour is a co-located commit in miniature: two
// sessions keep both processors busy with 1-2 µs sections and yield only
// every 2 ms, and a drainer wakes every 300 µs. The straggler a drain finds
// is running on the other processor and exits within microseconds; a drain
// that yields instead queues behind the neighbour that just yielded to it, for
// up to that neighbour's 2 ms. Drain p99 is held to 200 µs over the drains
// during which the host took no processor away. A shared host does that every
// few hundred drains, and no spin outlasts it: a drain is not judged when a
// section that began before it ended ran past the spin budget, or when the
// drain itself ran past it without yielding, which only a drainer that lost
// its processor does.
func TestDrainBesideBusyNeighbour(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tb := NewTable()
	base := time.Now()
	var stop atomic.Bool
	var firstStall atomic.Int64 // start of the earliest section past the budget since the drainer reset it
	var laps [2]atomic.Uint64   // sections each user has finished and timed
	var wg sync.WaitGroup
	for i := range laps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := tb.Register()
			defer tb.Unregister(slot)
			yielded := time.Now()
			for !stop.Load() {
				start := time.Now()
				slot.Enter()
				for end := start.Add(1500 * time.Nanosecond); time.Now().Before(end); {
				}
				slot.Exit()
				if time.Since(start) > hrtimer.SpinBudget {
					for at := int64(start.Sub(base)); ; {
						if cur := firstStall.Load(); at >= cur || firstStall.CompareAndSwap(cur, at) {
							break
						}
					}
				}
				laps[i].Add(1)
				if time.Since(yielded) > 2*time.Millisecond {
					runtime.Gosched()
					yielded = time.Now()
				}
			}
		}()
	}
	drains := make([]time.Duration, 0, 200)
	excused := 0
	for deadline := time.Now().Add(5 * time.Second); len(drains) < cap(drains) && time.Now().Before(deadline); {
		firstStall.Store(math.MaxInt64)
		yields := tb.Yields()
		start := time.Now()
		tb.Drain()
		d := time.Since(start)
		ended := int64(time.Since(base))
		yielded := tb.Yields() != yields
		lap0, lap1 := laps[0].Load(), laps[1].Load()
		time.Sleep(300 * time.Microsecond)
		// Judged once each user has timed a section that began after the drain.
		if firstStall.Load() < ended || laps[0].Load() == lap0 || laps[1].Load() == lap1 ||
			!yielded && d > 2*hrtimer.SpinBudget {
			excused++
			continue
		}
		drains = append(drains, d)
	}
	stop.Store(true)
	wg.Wait()
	if len(drains) < cap(drains)/2 {
		t.Skipf("the host took a processor away during %d drains of %d", excused, excused+len(drains))
	}
	slices.Sort(drains)
	p50, p99 := drains[len(drains)/2], drains[len(drains)*99/100-1]
	t.Logf("%d drains (%d the host interrupted, not judged): p50 %v, p99 %v, max %v",
		len(drains), excused, p50, p99, drains[len(drains)-1])
	if p99 >= 200*time.Microsecond {
		t.Fatalf("drain p99 %v beside two busy sessions; want < 200µs", p99)
	}
}

// TestDrainOnOneProcessor is the one-processor twin: there a straggler runs
// only once the drainer gives the processor up, so the drain yields at once
// rather than spinning out its budget first, and it returns once a straggler
// parked inside its section (what epoch-discipline forbids, here to force
// the yield) exits. The goroutine that releases the straggler is runnable
// before the drain starts and runs at the drainer's first yield: its start is
// the drain's time on the processor, at least the whole budget had it spun.
func TestDrainOnOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tb := NewTable()
	slot := tb.Register()
	best := time.Hour
	for i := 0; i < 10; i++ {
		inSection, release := make(chan struct{}), make(chan struct{})
		var exited atomic.Bool
		go func() {
			slot.Enter()
			close(inSection)
			<-release
			exited.Store(true)
			slot.Exit()
		}()
		<-inSection
		var ran atomic.Int64
		start := time.Now()
		go func() {
			ran.Store(int64(time.Since(start)))
			close(release)
		}()
		yields := tb.Yields()
		tb.Drain()
		if !exited.Load() {
			t.Fatal("Drain returned before the straggler exited")
		}
		if got := tb.Yields(); got != yields+1 {
			t.Fatalf("Yields moved %d → %d over one drain that yielded", yields, got)
		}
		best = min(best, time.Duration(ran.Load()))
	}
	if best >= hrtimer.SpinBudget {
		t.Fatalf("drain held the only processor %v (best of 10) before yielding; want under the %v spin budget", best, hrtimer.SpinBudget)
	}
}

func BenchmarkEnterExit(b *testing.B) {
	tb := NewTable()
	s := tb.Register()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Enter()
		s.Exit()
	}
}

func BenchmarkAllObserved(b *testing.B) {
	tb := NewTable()
	for i := 0; i < 64; i++ {
		s := tb.Register()
		s.Enter()
		s.Exit()
	}
	target := tb.Bump()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tb.AllObserved(target) {
			b.Fatal("should be safe")
		}
	}
}
