package lockorder

import (
	"slices"
	"sort"
	"sync"
)

// The three lock levels mirror internal/store/cache.go: the analyzer
// ranks locks by owner-type and field name.

type cacheFile struct{ mu sync.Mutex }

type cacheBlock struct{ bmu sync.Mutex }

type Cache struct{ mu sync.Mutex }

// inOrder takes the levels in the documented order.
func inOrder(f *cacheFile, b *cacheBlock, c *Cache) {
	f.mu.Lock()
	b.bmu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	b.bmu.Unlock()
	f.mu.Unlock()
}

// inverted acquires per-handle under cache-wide.
func inverted(f *cacheFile, c *Cache) {
	c.mu.Lock()
	f.mu.Lock() // want `acquires per-handle .* while holding cache-wide`
	f.mu.Unlock()
	c.mu.Unlock()
}

// reentrant locks the same level twice.
func reentrant(f *cacheFile) {
	f.mu.Lock()
	f.mu.Lock() // want `self-deadlock`
	f.mu.Unlock()
	f.mu.Unlock()
}

// pairWithoutOrder takes two per-block locks with no ordering evidence.
func pairWithoutOrder(a, b *cacheBlock) {
	a.bmu.Lock()
	b.bmu.Lock() // want `second per-block lock .* without ascending-index evidence`
	b.bmu.Unlock()
	a.bmu.Unlock()
}

// unsortedBatch accumulates per-block locks across loop iterations
// without sorting the batch first.
func unsortedBatch(bs []*cacheBlock) {
	for _, b := range bs { // want `loop accumulates per-block locks`
		b.bmu.Lock()
	}
	for _, b := range bs {
		b.bmu.Unlock()
	}
}

// sortedBatch carries sort.Slice evidence for the same pattern.
func sortedBatch(bs []*cacheBlock) {
	sort.Slice(bs, func(i, j int) bool { return i < j })
	for _, b := range bs {
		b.bmu.Lock()
	}
	for _, b := range bs {
		b.bmu.Unlock()
	}
}

// ascendingBatch iterates an ascending index while locking.
func ascendingBatch(bs []*cacheBlock, first, last int) {
	for i := first; i <= last; i++ {
		bs[i].bmu.Lock()
	}
	for i := first; i <= last; i++ {
		bs[i].bmu.Unlock()
	}
}

// lockHandle is summarized: callers holding a higher rank may not
// invoke it.
func lockHandle(f *cacheFile) {
	f.mu.Lock()
	f.mu.Unlock()
}

// callsDown violates the order one call deep.
func callsDown(f *cacheFile, c *Cache) {
	c.mu.Lock()
	lockHandle(f) // want `calls lockHandle, which may acquire per-handle`
	c.mu.Unlock()
}

// earlyReturn's guard returns before any lock is taken; the walk must
// go on past it to the unsorted batch below.
func earlyReturn(bs []*cacheBlock, abandoned bool) {
	if abandoned {
		return
	}
	for _, b := range bs { // want `loop accumulates per-block locks`
		b.bmu.Lock()
	}
	for _, b := range bs {
		b.bmu.Unlock()
	}
}

// caseReturn's switch returns in its only case but has no default: the
// no-match path falls through to the inverted pair.
func caseReturn(f *cacheFile, c *Cache, n int) {
	switch n {
	case 0:
		return
	}
	c.mu.Lock()
	f.mu.Lock() // want `acquires per-handle .* while holding cache-wide`
	f.mu.Unlock()
	c.mu.Unlock()
}

// lockUnlockThenHandle releases the whole batch in its unlock loop, so
// the per-handle lock taken afterwards is in order.
func lockUnlockThenHandle(f *cacheFile, bs []*cacheBlock) {
	sort.Slice(bs, func(i, j int) bool { return i < j })
	for _, b := range bs {
		b.bmu.Lock()
	}
	for _, b := range bs {
		b.bmu.Unlock()
	}
	lockHandle(f)
}

// partialUnlock releases the batch only on some paths, so a block lock
// may still be held when the per-handle lock is taken.
func partialUnlock(f *cacheFile, bs []*cacheBlock, keep bool) {
	sort.Slice(bs, func(i, j int) bool { return i < j })
	for _, b := range bs {
		b.bmu.Lock()
	}
	for _, b := range bs {
		if !keep {
			b.bmu.Unlock()
		}
	}
	lockHandle(f) // want `calls lockHandle, which may acquire per-handle`
}

// slicesSorted carries slices.SortFunc evidence for a batch.
func slicesSorted(bs []*cacheBlock) {
	slices.SortFunc(bs, func(a, b *cacheBlock) int { return 0 })
	for _, b := range bs {
		b.bmu.Lock()
	}
	for _, b := range bs {
		b.bmu.Unlock()
	}
}
