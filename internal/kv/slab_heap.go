//go:build !linux || race

package kv

// Under the race detector slabs are Go heap memory: the detector does not see
// memory outside the heap, and the log's lock-free reads are what -race is run
// to check. Elsewhere than Linux MADV_DONTNEED does not promise zero-filled
// pages, so a dropped slab is cleared by hand.

func mapSlab() []byte { return make([]byte, slabSize) }

func dropSlab(b []byte) { clear(b) }

func unmapSlab([]byte) {}
