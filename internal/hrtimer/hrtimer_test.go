package hrtimer

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lateness is the bound on the median lateness of a wait in an idle process:
// the poller's wake-up and one goroutine hop. (A bare runtime timer reads
// twelve times that.) Doubled under the race detector.
var lateness = 80 * time.Microsecond

// withinBound retries a measurement whose upper bound a noisy host can miss:
// it passes as soon as one of three attempts is within the bound. Lower bounds
// (nothing fires early) are asserted strictly, inside measure.
func withinBound(t *testing.T, what string, bound time.Duration, measure func() time.Duration) {
	t.Helper()
	var got time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		if got = measure(); got <= bound {
			t.Logf("%s: %v (bound %v)", what, got, bound)
			return
		}
	}
	t.Errorf("%s: %v in the best of three attempts, want <= %v", what, got, bound)
}

// medianLateness runs n waits of d one at a time through afterFunc and returns
// the median of how long after its deadline each fired.
func medianLateness(t *testing.T, n int, d time.Duration, afterFunc func(time.Duration, func())) time.Duration {
	t.Helper()
	late := make([]time.Duration, n)
	fired := make(chan time.Time)
	for i := range late {
		start := time.Now()
		afterFunc(d, func() { fired <- time.Now() })
		took := (<-fired).Sub(start)
		if took < d {
			t.Fatalf("wait %d of %v fired after %v", i, d, took)
		}
		late[i] = took - d
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	return late[n/2]
}

// An idle process: the test goroutine is parked on a channel while each wait
// runs, so nothing but the wait itself will wake the runtime.
func TestIdleProcessFiresOnTime(t *testing.T) {
	const n, d = 200, 100 * time.Microsecond
	t.Logf("bare time.AfterFunc: median lateness %v",
		medianLateness(t, n, d, func(d time.Duration, f func()) { time.AfterFunc(d, f) }))
	withinBound(t, "hrtimer.AfterFunc median lateness", lateness, func() time.Duration {
		return medianLateness(t, n, d, func(d time.Duration, f func()) { AfterFunc(d, f) })
	})
}

// A saturated process: every P runs a goroutine that only yields and one more
// is queued, so the scheduler never idles into the poller (sysmon polls it
// after 10 ms, which is what a poller-only wait would read) and the runtime leg
// must carry the wait. One more than GOMAXPROCS, not as many: with no goroutine
// queued a P idles between two yields, its thread sleeps and is woken thousands
// of times a second, and on a two-processor host the kernel then leaves one
// timer in ten waiting for its next tick (4 ms) — a bare runtime timer no less.
func TestSaturatedProcessFiresWithinAMillisecond(t *testing.T) {
	stop := make(chan struct{})
	var spinners sync.WaitGroup
	for i := 0; i <= runtime.GOMAXPROCS(0); i++ {
		spinners.Add(1)
		go func() {
			defer spinners.Done()
			for {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	defer func() { close(stop); spinners.Wait() }()

	const n, d = 200, 100 * time.Microsecond
	waits := func() []time.Duration {
		took := make([]time.Duration, n)
		fired := make(chan time.Time)
		for i := range took {
			start := time.Now()
			AfterFunc(d, func() { fired <- time.Now() })
			if took[i] = (<-fired).Sub(start); took[i] < d {
				t.Fatalf("wait %d of %v fired after %v", i, d, took[i])
			}
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		t.Logf("median %v, 95th %v, 99th %v, slowest %v", took[n/2], took[n*95/100], took[n*99/100], took[n-1])
		return took
	}
	// Two bounds, neither on the slowest wait: a host with more spinning
	// threads than processors takes one off its processor for a tick (4 ms),
	// now and then for two, whatever the timer is made of — here one wait in a
	// hundred or so. Nearly every wait is within a millisecond; and the 99th
	// percentile is within one tick of that, where waits that had lost their
	// runtime leg would read up to sysmon's 10 ms.
	withinBound(t, "95th percentile of 200 waits under saturation", d+time.Millisecond, func() time.Duration {
		return waits()[n*95/100]
	})
	withinBound(t, "99th percentile of 200 waits under saturation", d+5*time.Millisecond, func() time.Duration {
		return waits()[n*99/100]
	})
}

func TestRacingWaitsRunExactlyOnce(t *testing.T) {
	const n = 10000
	var ran atomic.Int64
	var done sync.WaitGroup
	done.Add(n)
	counts := make([]atomic.Int32, n)
	for i := 0; i < n; i++ {
		i := i
		// Spread over 0-200 µs so that both legs come due close together.
		AfterFunc(time.Duration(i%200)*time.Microsecond, func() {
			if counts[i].Add(1) == 1 {
				done.Done()
			}
			ran.Add(1)
		})
	}
	done.Wait()
	time.Sleep(20 * time.Millisecond) // a second run of some f would land by now
	if got := ran.Load(); got != n {
		t.Fatalf("f ran %d times for %d waits", got, n)
	}
}

func TestStop(t *testing.T) {
	var ran atomic.Int32
	tm := AfterFunc(5*time.Millisecond, func() { ran.Add(1) })
	if !tm.Stop() {
		t.Fatal("Stop before the deadline returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	time.Sleep(20 * time.Millisecond)
	if ran.Load() != 0 {
		t.Fatal("f ran after a successful Stop")
	}

	fired := make(chan struct{})
	tm = AfterFunc(50*time.Microsecond, func() { close(fired) })
	<-fired
	if tm.Stop() {
		t.Fatal("Stop after f ran returned true")
	}
}

// Stop racing the deadline: whichever way each race goes, f runs if and only
// if Stop returned false.
func TestStopRacesTheDeadline(t *testing.T) {
	const n = 2000
	var ran, stopped atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		d := time.Duration(50+i%20) * time.Microsecond
		tm := AfterFunc(d, func() { ran.Add(1) })
		go func() {
			defer wg.Done()
			time.Sleep(d)
			if tm.Stop() {
				stopped.Add(1)
			}
		}()
	}
	wg.Wait()
	time.Sleep(20 * time.Millisecond)
	if ran.Load()+stopped.Load() != n {
		t.Fatalf("%d ran + %d stopped != %d waits", ran.Load(), stopped.Load(), n)
	}
}

// Pooled channel timers: one that ran out, one released early, and many
// goroutines recycling them — a timer taken from the pool never carries a
// send from its previous life, so no wait returns early.
func TestPooledTimersNeverFireEarly(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				d := time.Duration(20+(g+i)%60) * time.Microsecond
				start := time.Now()
				tm := NewTimer(d)
				if i%3 == 0 {
					tm.Release() // abandoned, possibly mid-fire
					continue
				}
				<-tm.C
				if took := time.Since(start); took < d {
					t.Errorf("pooled timer of %v ran out after %v", d, took)
				}
				tm.Release()
			}
		}(g)
	}
	wg.Wait()
}

// Sleep's bound is twice AfterFunc's: the sleeper is one more goroutine to
// wake after the reader. time.Sleep reads a millisecond here.
func TestSleep(t *testing.T) {
	const d = 150 * time.Microsecond
	withinBound(t, "Sleep(150µs) median lateness", 2*lateness, func() time.Duration {
		late := make([]time.Duration, 100)
		for i := range late {
			start := time.Now()
			Sleep(d)
			took := time.Since(start)
			if took < d {
				t.Fatalf("Sleep(%v) returned after %v", d, took)
			}
			late[i] = took - d
		}
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		return late[len(late)/2]
	})
}

func BenchmarkNewTimerRelease(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewTimer(time.Second).Release()
	}
}
