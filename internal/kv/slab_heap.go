//go:build !linux || race

package kv

// Under the race detector slabs and index buckets are Go heap memory: the
// detector does not see memory outside the heap, and the log's and the
// index's lock-free reads are what -race is run to check. Elsewhere than
// Linux MADV_DONTNEED does not promise zero-filled pages, so a dropped slab is
// cleared by hand.

func mapMemory(n int, _ bool) []byte { return make([]byte, n) }

func dropMemory(b []byte) { clear(b) }

func unmapMemory([]byte) {}
