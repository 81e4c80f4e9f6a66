//go:build linux && !race

package kv

import (
	"fmt"
	"syscall"
)

// Slabs and index buckets are anonymous private mappings, outside the
// collector's heap: the epoch drain decides when a slab is free, and an index
// lives as long as its store, so the collector has nothing to count or
// reclaim (DESIGN.md "Self-paced, no knob"). A mapping is page-aligned and
// zero-filled. An index is populated when made, at the store's creation: it
// is sized for the keys it will hold, and one call is cheaper than a fault
// per page (a 4 MiB index rebuilt by Recover on a 2-vCPU host: 25-27 ms
// faulted in, 22-23 ms populated). A slab is not: it is mapped on the
// operation path, when the tail enters it, and its pages fault in as records
// are written.

func mapMemory(n int, populate bool) []byte {
	flags := syscall.MAP_ANON | syscall.MAP_PRIVATE
	if populate {
		flags |= syscall.MAP_POPULATE
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, flags)
	if err != nil {
		panic(fmt.Sprintf("kv: map %d bytes: %v", n, err))
	}
	return b
}

// dropMemory hands the pages back to the kernel, which zero-fills them when
// they are written again.
func dropMemory(b []byte) {
	if syscall.Madvise(b, syscall.MADV_DONTNEED) != nil {
		clear(b)
	}
}

func unmapMemory(b []byte) { _ = syscall.Munmap(b) }
