// Package mutexbad is the failing fixture for the mutex-discipline checker:
// a leaked lock (past a return, and out of a loop by a break), a
// self-deadlock and an inverted acquisition order. The by-value copy shapes
// at the end are `go vet`'s (copylocks), not dpr-vet's: their `// want-vet`
// lines are matched by TestFixturesRejectedByVet.
package mutexbad

import "sync"

type Box struct {
	mu sync.Mutex
	n  int
}

// Leak returns while still holding mu.
func Leak(b *Box) int {
	b.mu.Lock()
	return b.n // want "is still held at this return"
}

// LoopLeak leaves the retry loop by the break with mu held, and returns.
func LoopLeak(b *Box, ready func() bool) {
	for {
		b.mu.Lock()
		if ready() {
			break
		}
		b.mu.Unlock()
	}
	return // want "b.mu.Lock.. acquired at .* is still held at this return"
}

// Double acquires the same exclusive lock twice.
func Double(b *Box) {
	b.mu.Lock()
	b.mu.Lock() // want "self-deadlock"
	b.mu.Unlock()
	b.mu.Unlock()
}

// Pair's locks must nest a-then-b.
//
//dpr:lockorder mutexbad.Pair.a < mutexbad.Pair.b
type Pair struct {
	a sync.Mutex
	b sync.Mutex
	n int
}

// Inverted acquires against the declared order.
func Inverted(p *Pair) {
	p.b.Lock()
	p.a.Lock() // want "violating //dpr:lockorder mutexbad.Pair.a < mutexbad.Pair.b"
	p.n++
	p.a.Unlock()
	p.b.Unlock()
}

// ByValue copies the lock in through its parameter.
func ByValue(b Box) int { // want-vet "ByValue passes lock by value: fixture/mutexbad.Box contains sync.Mutex"
	return b.n
}

// CopyOut copies the lock through a dereferencing assignment.
func CopyOut(b *Box) int {
	c := *b // want-vet "assignment copies lock value to c: fixture/mutexbad.Box contains sync.Mutex"
	return c.n
}

func use(v any) { _ = v }

// CallCopy copies the lock into a call argument.
func CallCopy(b *Box) {
	use(*b) // want-vet "call of use copies lock value: fixture/mutexbad.Box contains sync.Mutex"
}

// Get copies the lock in through its receiver.
func (b Box) Get() int { // want-vet "Get passes lock by value: fixture/mutexbad.Box contains sync.Mutex"
	return b.n
}

// Clone copies the lock out through its result.
func Clone(b *Box) Box {
	return *b // want-vet "return copies lock value: fixture/mutexbad.Box contains sync.Mutex"
}
