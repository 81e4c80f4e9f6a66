// Package mutexok is the clean fixture for the mutex-discipline checker:
// pointer passing, releases on every path, and nesting that follows the
// declared lock order.
package mutexok

import "sync"

type Box struct {
	mu sync.Mutex
	n  int
}

// WithDefer releases through the dominating defer.
func WithDefer(b *Box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Branchy unlocks explicitly before every return.
func Branchy(b *Box, fast bool) int {
	b.mu.Lock()
	if fast {
		n := b.n
		b.mu.Unlock()
		return n
	}
	b.mu.Unlock()
	return 0
}

// RetryLoop leaves the loop by the break with mu held and releases it after.
func RetryLoop(b *Box, ready func() bool) int {
	for {
		b.mu.Lock()
		if ready() {
			break
		}
		b.mu.Unlock()
	}
	n := b.n
	b.mu.Unlock()
	return n
}

// Pair's locks nest a-then-b, as declared.
//
//dpr:lockorder mutexok.Pair.a < mutexok.Pair.b
type Pair struct {
	a sync.Mutex
	b sync.Mutex
	n int
}

// Nested acquires in declared order.
func Nested(p *Pair) {
	p.a.Lock()
	p.b.Lock()
	p.n++
	p.b.Unlock()
	p.a.Unlock()
}
