// Package atomicbad holds the atomic misuses no dpr-vet checker looks for any
// more, each marked with what rejects it instead: `go vet` (copylocks) for a
// typed wrapper copied by value — the want-vet lines, matched one by one by
// TestFixturesRejectedByVet — and `make atomic-check`'s two grep rules for
// the sync/atomic free functions and for a wrapper overwritten with a zero
// literal — the want-grep lines, TestAtomicGrepRules. dpr-vet itself is
// silent here.
package atomicbad

import "sync/atomic"

type Counter struct {
	n    uint64
	hits atomic.Uint64
}

type List struct {
	head atomic.Pointer[Counter]
}

// Inc uses a free function: the field's type no longer says it is atomic, so
// a plain access elsewhere (Read) compiles.
func (c *Counter) Inc() {
	atomic.AddUint64(&c.n, 1) // want-grep
}

func (c *Counter) Read() uint64 {
	return c.n
}

// Reset overwrites the wrapper with a plain store; vet exempts composite
// literals.
func (c *Counter) Reset() {
	c.hits = atomic.Uint64{} // want-grep
}

// Snapshot copies the wrapper out of the field.
func (c *Counter) Snapshot() atomic.Uint64 {
	return c.hits // want-vet "return copies lock value: sync/atomic.Uint64 contains sync/atomic.noCopy"
}

// Total takes a wrapper-holding struct by value.
func Total(c Counter) uint64 { // want-vet "Total passes lock by value: fixture/atomicbad.Counter contains sync/atomic.Uint64"
	return c.hits.Load()
}

// Fork copies a struct holding an atomic.Pointer through an assignment.
func Fork(l *List) *List {
	d := *l // want-vet "assignment copies lock value to d: fixture/atomicbad.List contains sync/atomic.Pointer"
	return &d
}
