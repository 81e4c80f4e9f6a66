package hrtimer

import (
	"container/heap"
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// The poller leg: one timerfd for the process, kept armed at the earliest
// pending deadline of a min-heap, and one goroutine reading it. The descriptor
// is non-blocking and wrapped in an os.File, so the read parks in the
// runtime's network poller — the one place an idle Go process is waiting in
// the kernel, and the kernel wakes it at the deadline, not a millisecond on.
var poller struct {
	file *os.File // nil if the kernel refused a timerfd: the runtime leg stands alone
	fd   uintptr  // file's descriptor (File.Fd would put it back into blocking mode)

	mu    sync.Mutex
	heap  timerHeap
	armed int64 // deadline the descriptor is set to; 0 when it has run out
}

// The reader is started here and not at first use, so that a test counting
// goroutines before and after itself never sees it appear.
func init() {
	const tfdNonblock, tfdCloexec = syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return
	}
	poller.fd, poller.file = fd, os.NewFile(fd, "timerfd")
	go readPoller()
}

const clockMonotonic = 1

// itimerspec is struct itimerspec: the interval (unused, one-shot) and the
// value, relative to now.
type itimerspec struct {
	interval, value syscall.Timespec
}

// setLocked arms the descriptor to run out at when.
func setLocked(when int64) {
	rel := when - nanos()
	if rel < 1 {
		rel = 1 // zero would disarm it
	}
	spec := itimerspec{value: syscall.NsecToTimespec(rel)}
	// The only failures are a bad descriptor or pointer; the runtime leg
	// covers the wait either way.
	_, _, _ = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, poller.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	poller.armed = when
}

// pollerArm enters t's current arming, which comes due at when.
func pollerArm(t *Timer, when int64) {
	if poller.file == nil {
		return
	}
	p := &poller
	p.mu.Lock()
	t.heapWhen = when
	if t.heapIdx >= 0 {
		heap.Fix(&p.heap, t.heapIdx) // an entry the runtime leg left behind, taken over
	} else {
		heap.Push(&p.heap, t)
	}
	if p.armed == 0 || when < p.armed {
		setLocked(when)
	}
	p.mu.Unlock()
}

// pollerRemove takes a stopped timer's entry out. The descriptor stays as it
// is: one early wake-up costs less than setting it again.
func pollerRemove(t *Timer) {
	if poller.file == nil {
		return
	}
	poller.mu.Lock()
	if t.heapIdx >= 0 {
		heap.Remove(&poller.heap, t.heapIdx)
	}
	poller.mu.Unlock()
}

type dueTimer struct {
	t *Timer
	s uint64
}

func readPoller() {
	p := &poller
	var buf [8]byte
	var due []dueTimer
	for {
		p.mu.Lock()
		now := nanos()
		for len(p.heap) > 0 && p.heap[0].heapWhen <= now {
			t := heap.Pop(&p.heap).(*Timer)
			// An entry the runtime leg claimed is dropped here and costs
			// nothing more. One whose timer is being armed again this moment
			// is not due by the timer's own deadline, and that arming enters it anew.
			if s := t.state.Load(); s%3 == pending && t.when.Load() <= now {
				due = append(due, dueTimer{t, s})
			}
		}
		if len(due) > 0 {
			// Deliver, then look again before going back to the descriptor:
			// two shards' seals end microseconds apart, and the second is due
			// by the time the first is handed over.
			p.mu.Unlock()
			for i, d := range due {
				d.t.pollerLeg(d.s)
				due[i] = dueTimer{}
			}
			due = due[:0]
			continue
		}
		for len(p.heap) > 0 && p.heap[0].state.Load()%3 != pending {
			heap.Pop(&p.heap) // nor is the descriptor set on a claimed entry's behalf
		}
		p.armed = 0
		if len(p.heap) > 0 {
			setLocked(p.heap[0].heapWhen)
		}
		p.mu.Unlock()
		if _, err := p.file.Read(buf[:]); err != nil {
			// Not reachable with a descriptor nobody closes; if it happens,
			// every wait still has its runtime leg.
			return
		}
	}
}

// timerHeap is a container/heap of timers by heapWhen that keeps each timer's
// index, so that Stop takes its entry out in O(log n). Under poller.mu.
type timerHeap []*Timer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].heapWhen < h[j].heapWhen }
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}

func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.heapIdx = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	t.heapIdx = -1
	return t
}
