//go:build linux && !race

package kv

import (
	"fmt"
	"syscall"
)

// A slab is an anonymous private mapping, outside the collector's heap: the
// epoch drain decides when a slab is free, so the collector has nothing to
// count or reclaim (DESIGN.md "Self-paced, no knob").

func mapSlab() []byte {
	b, err := syscall.Mmap(-1, 0, slabSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("kv: map log slab: %v", err))
	}
	return b
}

// dropSlab hands the pages back to the kernel, which zero-fills them when the
// slab is written again.
func dropSlab(b []byte) {
	if syscall.Madvise(b, syscall.MADV_DONTNEED) != nil {
		clear(b)
	}
}

func unmapSlab(b []byte) { _ = syscall.Munmap(b) }
