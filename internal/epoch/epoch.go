// Package epoch implements a light-weight epoch-protection framework in the
// style of FASTER's: a global era counter, per-thread (per-session) slots
// that record the era a thread has observed, and a safety predicate telling
// when every active thread has observed an era. The key-value store's CPR
// checkpoint and rollback state machines (paper §5.5) use it to establish
// fuzzy version boundaries without blocking operation processing: after the
// global state advances, the boundary is final once every operation that
// entered under the previous era has drained.
package epoch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/hrtimer"
)

// Slot is one participant's registration in a Table. A participant Enters a
// slot for the duration of each protected operation and Exits afterwards.
// Slots must not be shared between concurrent operations.
type Slot struct {
	// packed holds (era << 1) | activeBit.
	packed atomic.Uint64
	table  *Table
	// next forms the registry's lock-free singly linked list.
	next *Slot
	dead atomic.Bool
}

// Table is a global era counter plus its registered slots.
type Table struct {
	global atomic.Uint64
	mu     sync.Mutex
	head   atomic.Pointer[Slot]
	yields atomic.Uint64
}

// NewTable returns a table at era 1.
func NewTable() *Table {
	t := &Table{}
	t.global.Store(1)
	return t
}

// Register adds a slot to the table. Call once per logical thread/session.
func (t *Table) Register() *Slot {
	s := &Slot{table: t}
	t.mu.Lock()
	s.next = t.head.Load()
	t.head.Store(s)
	t.mu.Unlock()
	return s
}

// Unregister removes the slot from safety accounting. The slot must not be
// entered again. The registry list keeps the node (removal is logical) —
// registration churn is low (one per session lifetime).
func (t *Table) Unregister(s *Slot) {
	s.dead.Store(true)
	s.packed.Store(0)
}

// Bump advances the global era and returns the new value.
func (t *Table) Bump() uint64 { return t.global.Add(1) }

// Enter marks the slot active and records the current era; returns that era.
// The caller must pair with Exit. Enter/Exit are cheap (two atomic stores)
// and are performed around every store operation.
func (s *Slot) Enter() uint64 {
	era := s.table.global.Load()
	s.packed.Store(era<<1 | 1)
	// A second load catches the race where the era advanced between the
	// load and the store: re-publish with the newer era so the safety scan
	// never misses us. One retry suffices because we only need an era at
	// or after the first load.
	if era2 := s.table.global.Load(); era2 != era {
		era = era2
		s.packed.Store(era<<1 | 1)
	}
	return era
}

// Era returns the era the slot observed at Enter (0 if inactive).
func (s *Slot) Era() uint64 {
	p := s.packed.Load()
	if p&1 == 0 {
		return 0
	}
	return p >> 1
}

// Exit marks the slot inactive.
func (s *Slot) Exit() { s.packed.Store(0) }

// Held reports whether the slot is entered. Its owner asks it to nest an
// operation inside a section that spans several (a batch): the operation
// enters only if no caller has.
func (s *Slot) Held() bool { return s.packed.Load()&1 == 1 }

// Drain is the quiesce primitive shared by the CPR state machines and the
// per-lane rollback fence: it bumps the global era and blocks until every
// operation that entered under an older era has exited, then returns the
// drained era. After Drain returns, any state published (with an atomic
// store) before the call is visible to every subsequent Enter, and no
// protected operation that began before the bump is still running.
//
// Concurrent Drains compose: each bumps the era once and waits for its own
// target, so overlapping callers all return once the slowest straggler from
// the oldest era exits. Drain must not be called from inside an
// Enter/Exit-protected section of the same table — the caller would wait for
// itself.
func (t *Table) Drain() uint64 {
	target := t.Bump()
	t.WaitObserved(target)
	return target
}

// WaitObserved blocks until AllObserved(target) holds. A protected section
// never blocks (dpr-vet's epoch-discipline), so a straggler is running or
// runnable and exits within about one section: the wait first spins on its
// own processor for hrtimer.SpinBudget, where a yield would queue it behind
// whatever else is runnable. Past the budget — or at once on one processor,
// where the straggler runs only once the waiter yields — it yields, then
// sleeps in short steps so a straggler that was preempted does not burn a core.
func (t *Table) WaitObserved(target uint64) {
	t.waitUntil(func() bool { return t.AllObserved(target) })
}

// WaitPassed is WaitObserved for one slot: it blocks until s.Passed(target).
func (t *Table) WaitPassed(s *Slot, target uint64) {
	t.waitUntil(func() bool { return s.Passed(target) })
}

func (t *Table) waitUntil(done func() bool) {
	if hrtimer.Spin(done) {
		return
	}
	t.yields.Add(1)
	for spin := 0; !done(); spin++ {
		if spin < 64 {
			runtime.Gosched()
			continue
		}
		hrtimer.Sleep(10 * time.Microsecond)
	}
}

// Yields returns how many waits outlasted the spin and gave up their
// processor. On more than one processor a rising count means protected
// sections that block or are preempted.
func (t *Table) Yields() uint64 { return t.yields.Load() }

// AllObserved reports whether every active, registered slot has observed an
// era >= target. Inactive slots are safe by definition: whenever they next
// Enter they will observe the current (>= target) era.
func (t *Table) AllObserved(target uint64) bool {
	for s := t.head.Load(); s != nil; s = s.next {
		if !s.Passed(target) {
			return false
		}
	}
	return true
}

// Passed reports whether the slot holds no operation that entered under an
// era before target: it is inactive, unregistered, or entered at target or
// later.
func (s *Slot) Passed(target uint64) bool {
	if s.dead.Load() {
		return true
	}
	p := s.packed.Load()
	return p&1 == 0 || p>>1 >= target
}

// ActiveCount returns the number of currently active slots (diagnostics).
func (t *Table) ActiveCount() int {
	n := 0
	for s := t.head.Load(); s != nil; s = s.next {
		if !s.dead.Load() && s.packed.Load()&1 == 1 {
			n++
		}
	}
	return n
}
