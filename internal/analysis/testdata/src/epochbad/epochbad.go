// Package epochbad violates the epoch-protection discipline: slots left
// entered on early returns, and blocking operations performed while a slot
// is entered (which can deadlock the table's drain).
package epochbad

import (
	"errors"
	"sync"
	"time"

	"fixture/epoch"
	"fixture/hrtimer"
)

// LeakOnError returns with the slot still entered on the failure path.
func LeakOnError(s *epoch.Slot, fail bool) error {
	s.Enter()
	if fail {
		return errors.New("boom") // want "epoch slot s entered at .* is still entered at this return"
	}
	s.Exit()
	return nil
}

// LoopEnter breaks out of the retry loop holding the slot and falls off the
// function end without an Exit.
func LoopEnter(s *epoch.Slot, ready func() bool) {
	for {
		s.Enter()
		if ready() {
			break
		}
		s.Exit()
	}
} // want "epoch slot s entered at .* is still entered at function end"

// RecvWhileEntered blocks on a channel receive inside the entered region.
func RecvWhileEntered(s *epoch.Slot, ch chan int) int {
	s.Enter()
	v := <-ch // want "channel receive while epoch slot s is entered"
	s.Exit()
	return v
}

// SendWhileEntered blocks on a channel send inside the entered region.
func SendWhileEntered(s *epoch.Slot, ch chan int) {
	s.Enter()
	ch <- 1 // want "channel send while epoch slot s is entered"
	s.Exit()
}

// SleepWhileEntered stalls the entered region (and therefore every drain).
func SleepWhileEntered(s *epoch.Slot) {
	s.Enter()
	time.Sleep(time.Millisecond) // want "time.Sleep while epoch slot s is entered"
	s.Exit()
}

// ShortSleepWhileEntered stalls it no less for sleeping through hrtimer.
func ShortSleepWhileEntered(s *epoch.Slot) {
	s.Enter()
	hrtimer.Sleep(time.Microsecond) // want "hrtimer.Sleep while epoch slot s is entered"
	s.Exit()
}

// DrainWhileEntered self-deadlocks: the drain waits for this very slot.
func DrainWhileEntered(s *epoch.Slot, t *epoch.Table) {
	s.Enter()
	t.Drain() // want "epoch.Table.Drain .self-deadlock against the drain. while epoch slot s is entered"
	s.Exit()
}

func flush(t *epoch.Table) { t.Drain() }

// TransitiveDrain reaches the drain through a helper; only the whole-program
// call graph sees it.
func TransitiveDrain(s *epoch.Slot, t *epoch.Table) {
	s.Enter()
	flush(t) // want "call to epochbad.flush, which can reach epoch.Table.Drain"
	s.Exit()
}

// Store couples its state-machine lock to the drain: checkpoint holds mu
// across Table.Drain, so acquiring mu while entered closes the deadlock
// loop.
type Store struct {
	mu  sync.Mutex
	tbl *epoch.Table
}

func (st *Store) checkpoint() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.tbl.Drain()
}

// Get takes the drain-coupled lock inside the entered region.
func (st *Store) Get(slot *epoch.Slot) {
	slot.Enter()
	st.mu.Lock() // want "epochbad.Store.mu acquired while epoch slot slot is entered"
	st.mu.Unlock()
	slot.Exit()
}
