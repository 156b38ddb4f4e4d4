//go:build linux && !race

package store

import "syscall"

// slabMapped reports that this build keeps the cache's block buffers in
// an anonymous mapping, outside the Go heap.
const slabMapped = true

// newSlab returns n bytes of block buffers as one private anonymous
// mapping, and true. Its pages fault in on first touch, so an idle
// cache holds no resident memory, and the collector never counts them,
// so the heap's growth allowance is not paid on them. If the mapping
// fails, the slab is a heap buffer, and false.
func newSlab(n int) ([]byte, bool) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return make([]byte, n), false
	}
	return b, true
}

// unmapSlab releases a mapping newSlab made. Munmap fails only on an
// address that is not a mapping, and newSlab made this one.
func unmapSlab(b []byte) { _ = syscall.Munmap(b) }
