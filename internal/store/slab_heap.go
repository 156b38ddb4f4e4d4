//go:build !linux || race

package store

// slabMapped reports that this build keeps the cache's block buffers on
// the Go heap: the race detector does not see accesses to mapped
// memory, so race builds keep the heap and every cache race test keeps
// its teeth, as do platforms without the mapping.
const slabMapped = false

// newSlab returns n bytes of block buffers on the heap, and false.
func newSlab(n int) ([]byte, bool) { return make([]byte, n), false }

// unmapSlab is never called: a heap slab is the collector's to free.
func unmapSlab([]byte) {}
