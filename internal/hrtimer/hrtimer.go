// Package hrtimer provides sub-millisecond waits that end on time in a process
// that is otherwise idle, in the shape of package time: AfterFunc, Timer.Stop,
// Sleep, and a pooled channel timer for select loops.
//
// A runtime timer fires when the scheduler next looks at its timers. A busy
// process looks at every scheduling decision; an idle one parks its last
// thread in the network poller with a timeout in whole milliseconds (epoll_wait
// rounds up), so a 100 µs time.AfterFunc fires 0.1-1 ms late. On Linux every
// wait here therefore arms two legs and the first to come due claims it: the
// runtime timer, and a process-wide timerfd that the poller itself is waiting
// on. Neither leg alone will do and there is nothing to choose between them:
// idle, only the poller leg is on time; with every P busy and goroutines
// queued the scheduler does not reach the poller at all (sysmon polls it after
// 10 ms) and only the runtime leg is. Elsewhere the runtime timer stands alone.
package hrtimer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Timer is one wait: an AfterFunc's handle, or a channel timer from NewTimer.
type Timer struct {
	// C receives once when a timer made by NewTimer runs out; nil for AfterFunc's.
	C <-chan struct{}
	c chan struct{}
	f func()

	// state counts the timer's transitions and is idle, pending or firing by
	// its remainder modulo three. Arming adds one, a claim moves pending to
	// firing with a compare-and-swap on the value it read — so a leg left over
	// from an earlier arming of a pooled timer cannot claim a later one — and
	// delivery adds the third; Stop goes from pending to idle in one step.
	state atomic.Uint64
	// when is the deadline of the current arming, in nanos(). Written before
	// state turns pending, so whoever reads pending reads this arming's.
	when atomic.Int64
	rt   *time.Timer // the runtime leg

	// The poller leg's entry, under the poller's lock: its position in the
	// heap (-1 when absent) and the deadline it is ordered by.
	heapIdx  int
	heapWhen int64
}

const (
	idle = iota
	pending
	firing
)

var base = time.Now()

// nanos is the monotonic clock both legs are compared against.
func nanos() int64 { return int64(time.Since(base)) }

// AfterFunc waits for d to elapse and then calls f in its own goroutine,
// never earlier. The returned Timer can cancel the call with Stop.
func AfterFunc(d time.Duration, f func()) *Timer {
	t := &Timer{f: f, heapIdx: -1}
	t.arm(d)
	return t
}

var timers = sync.Pool{New: func() any {
	c := make(chan struct{}, 1)
	return &Timer{C: c, c: c, heapIdx: -1}
}}

// NewTimer returns a timer that sends on its channel after at least d. It
// comes from a pool: hand it back with Release, whether or not it ran out.
func NewTimer(d time.Duration) *Timer {
	t := timers.Get().(*Timer)
	t.arm(d)
	return t
}

// Sleep pauses the calling goroutine for at least d.
func Sleep(d time.Duration) {
	t := NewTimer(d)
	<-t.C
	t.Release()
}

// arm starts a wait of d on an idle timer.
func (t *Timer) arm(d time.Duration) {
	when := nanos() + int64(d)
	t.when.Store(when)
	t.state.Add(1) // idle -> pending
	if t.rt == nil {
		t.rt = time.AfterFunc(d, t.runtimeLeg)
	} else {
		// A stopped runtime timer lingers in the heap of the P that armed it
		// and Reset leaves it there. If that P has gone idle since while
		// another is busy, the poller leg brings this arming in, a thread's
		// wake-up later than a fresh timer's runtime leg would have (35 µs on
		// the pump's deadline); the pool is worth a tenth of the resident set
		// on the closed-loop benchmark rows (EXPERIMENTS.md, "Waits that end
		// on time").
		t.rt.Reset(d)
	}
	pollerArm(t, when)
}

// claim moves the arming that s names from pending to firing; whoever
// succeeds owns the delivery.
func (t *Timer) claim(s uint64) bool {
	return s%3 == pending && t.state.CompareAndSwap(s, s+1)
}

// runtimeLeg is the runtime timer's callback, on its own goroutine. One that
// a Stop came too late for may run during a later arming of a pooled timer;
// it is then early by that arming's deadline and leaves it to its own legs.
func (t *Timer) runtimeLeg() {
	s := t.state.Load()
	if nanos() < t.when.Load() || !t.claim(s) {
		return
	}
	// The poller's entry stays where it is: it is popped when it comes due,
	// found claimed, and dropped, which costs less than taking it out now.
	t.deliver(false)
}

// pollerLeg is called by the poller's reader for an entry that came due while
// the timer's state was s.
func (t *Timer) pollerLeg(s uint64) {
	if !t.claim(s) {
		return
	}
	t.rt.Stop()
	t.deliver(true)
}

// deliver hands a claimed wait over: a send for a channel timer, else f — on
// a goroutine of its own, which the runtime leg's caller already is.
func (t *Timer) deliver(spawn bool) {
	if t.f == nil {
		t.c <- struct{}{} // never blocks: capacity one, drained before every arming
		t.state.Add(1)    // firing -> idle, after the send: Release waits for it
		return
	}
	t.state.Add(1)
	if spawn {
		go t.f()
	} else {
		t.f()
	}
}

// Stop prevents the timer from firing. It returns false if the timer has
// already been claimed by a leg (f has run or is about to) or stopped.
func (t *Timer) Stop() bool {
	s := t.state.Load()
	if s%3 != pending || !t.state.CompareAndSwap(s, s+2) {
		return false
	}
	t.rt.Stop()
	pollerRemove(t)
	return true
}

// Release stops a timer made by NewTimer and returns it to the pool. The
// caller must not touch it afterwards.
func (t *Timer) Release() {
	if !t.Stop() {
		// A leg is between its claim and its send, running elsewhere.
		if !Spin(t.idle) {
			for !t.idle() {
				runtime.Gosched()
			}
		}
		select {
		case <-t.c:
		default:
		}
	}
	timers.Put(t)
}

func (t *Timer) idle() bool { return t.state.Load()%3 == idle }

// SpinBudget is how long Spin keeps its processor: about the longest section
// an epoch drain waits out (one 64-operation batch on libdpr's lane table), and
// a twelfth of the ~250 µs turn a yield loses behind a goroutine that rarely
// yields (DESIGN.md "Commit rounds", Waits).
const SpinBudget = 20 * time.Microsecond

// Spin calls done without giving up the processor until it reports true or
// SpinBudget has passed, and returns its last answer. It is for a wait whose
// producer is running on another processor and is about to finish: yielding
// instead puts the waiter at the back of the global run queue, behind
// whatever is runnable, for as long as that takes to yield in turn. With one
// processor the producer can only run once the waiter yields, so Spin
// returns done's first answer without spinning.
func Spin(done func() bool) bool {
	if done() {
		return true
	}
	if runtime.GOMAXPROCS(0) == 1 {
		return false
	}
	for end := nanos() + int64(SpinBudget); nanos() < end; {
		if done() {
			return true
		}
	}
	return done()
}
