package store

// The block slab: blocks take their buffers from one reservation made
// by Cached, a block created while every slot is held spills to the
// heap and drops its buffer when it goes, and the slab is released by
// the Cache's cleanup, never while a straggler can reach it.

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// heapObjectBytes reads the collector's live-object bytes after a full
// collection.
func heapObjectBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// inSlab reports whether buf lies inside c's slab.
func inSlab(c *Cache, buf []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(c.slab)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p+uintptr(len(buf)) <= lo+uintptr(len(c.slab))
}

// TestCacheSlabKeepsBlocksOffHeap fills a 32 MiB cache to its budget.
// With a mapped slab the blocks' bytes never reach the Go heap, so the
// heap grows only by the blocks' bookkeeping.
func TestCacheSlabKeepsBlocksOffHeap(t *testing.T) {
	const bs, maxBytes = 64 << 10, 32 << 20
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xA5}, bs)
	before := heapObjectBytes()
	c := Cached(d, CacheOptions{BlockSize: bs, MaxBytes: maxBytes, FlushInterval: -1})
	defer c.Close()
	for off := int64(0); off < maxBytes; off += bs {
		if _, err := c.WriteAt(1, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.CacheStats(); st.CachedBytes != maxBytes || st.Evictions != 0 {
		t.Fatalf("cache holds %d bytes after %d evictions, want %d and none", st.CachedBytes, st.Evictions, maxBytes)
	}
	if len(c.free) != 0 {
		t.Fatalf("%d slots free in a full cache", len(c.free))
	}
	grew := int64(heapObjectBytes()) - int64(before)
	runtime.KeepAlive(c)
	t.Logf("heap objects grew %.2f MiB filling a %d MiB cache", float64(grew)/(1<<20), maxBytes>>20)
	if !slabMapped {
		t.Log("race or non-Linux build: the slab is on the Go heap, so the heap bound does not apply")
		return
	}
	if grew >= 4<<20 {
		t.Errorf("heap objects grew %d bytes filling the cache, want under 4 MiB", grew)
	}
}

// TestCacheSpillPastSlots writes one batch over more blocks than the
// cache has slots: the blocks past the slots spill to the heap, the
// batch reads back byte-exact, and no spill buffer joins the free list.
func TestCacheSpillPastSlots(t *testing.T) {
	const bs, slots, blocks = 512, 4, 11
	c, inner := newTestCache(t, CacheOptions{BlockSize: bs, MaxBytes: slots * bs})
	rng := rand.New(rand.NewSource(1))
	want := make([]byte, blocks*bs)
	rng.Read(want)
	// Gapped pieces, so the walk pins every block of the span at once.
	var spans []Span
	for off := 0; off < len(want); off += 3 * bs / 2 {
		end := min(off+bs, len(want))
		spans = append(spans, Span{Off: int64(off), Bufs: [][]byte{want[off:end]}})
	}
	if _, err := c.WriteBatch(7, spans); err != nil {
		t.Fatal(err)
	}
	// The lowest blocks took the slots and were evicted first, so the
	// blocks left are spills.
	c.mu.Lock()
	spilled := c.lru.Len() > 0 && c.lru.Front().Value.(*cacheBlock).spill
	c.mu.Unlock()
	if !spilled {
		t.Fatal("the batch pinned past the slots but no block spilled")
	}
	if _, err := c.WriteAt(7, want, 0); err != nil { // fill the gaps
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if len(c.free) > slots {
			t.Fatalf("%s: %d free buffers, more than the %d slots", when, len(c.free), slots)
		}
		for _, b := range c.free {
			if !inSlab(c, b) {
				t.Fatalf("%s: a spill buffer was parked on the free list", when)
			}
		}
	}
	check("after the writes")
	if st := c.CacheStats(); st.CachedBytes > slots*bs {
		t.Fatalf("cache holds %d bytes after the batch, want at most %d", st.CachedBytes, slots*bs)
	}
	got := make([]byte, len(want))
	if _, err := c.ReadAt(7, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the spilled batch reads back wrong through the cache")
	}
	check("after the read")
	if err := c.Sync(7); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.ReadAt(7, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the spilled batch reached the backend wrong")
	}
	// Every slot is either free or held by a cached block.
	c.mu.Lock()
	held := 0
	for e := c.lru.Front(); e != nil; e = e.Next() {
		if b := e.Value.(*cacheBlock); !b.spill {
			held++
		}
	}
	free := len(c.free)
	c.mu.Unlock()
	if held+free != slots {
		t.Fatalf("%d slots held and %d free, want %d in all", held, free, slots)
	}
}

// TestCacheSlabReleasedAfterDrop uses a cache, closes and drops it, and
// waits for its cleanup to unmap the slab.
func TestCacheSlabReleasedAfterDrop(t *testing.T) {
	if !slabMapped {
		t.Skip("race or non-Linux build: the slab is on the Go heap, and the collector frees it")
	}
	released := make(chan *byte, 64)
	hook := func(slab []byte) {
		select {
		case released <- unsafe.SliceData(slab):
		default:
		}
	}
	slabReleased.Store(&hook)
	defer slabReleased.Store(nil)

	want := func() *byte {
		c := Cached(NewMem(), CacheOptions{BlockSize: 4096, MaxBytes: 16 * 4096})
		buf := bytes.Repeat([]byte{1}, 40*4096)
		if _, err := c.WriteAt(1, buf, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadAt(1, buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return unsafe.SliceData(c.slab)
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case got := <-released:
			if got == want {
				return
			}
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatal("the dropped cache's slab was never unmapped")
		}
	}
}

// TestCacheAbandonUnderLoad abandons a cache while writers and readers
// run on it through a budget small enough that blocks evict, recycle
// and spill. Every call returns success or ErrAbandoned, and no call
// touches memory it should not.
func TestCacheAbandonUnderLoad(t *testing.T) {
	const bs, workers = 4096, 4
	inner := NewMem()
	c := Cached(inner, CacheOptions{BlockSize: bs, MaxBytes: 8 * bs, DirtyHighWater: 4 * bs, FlushInterval: time.Millisecond})
	var wg sync.WaitGroup
	var calls atomic.Int64
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, 6*bs)
			for {
				var spans []Span
				off := int64(rng.Intn(64)) * bs / 2
				for i := 0; i < 3; i++ {
					n := 1 + rng.Intn(2*bs)
					spans = append(spans, Span{Off: off, Bufs: [][]byte{buf[i*2*bs : i*2*bs+n]}})
					off += int64(n + 1 + rng.Intn(bs))
				}
				var err error
				if rng.Intn(2) == 0 {
					_, err = c.WriteBatch(uint64(w%2), spans)
				} else {
					_, err = c.ReadBatch(uint64(w%2), spans)
				}
				if err != nil {
					if !errors.Is(err, ErrAbandoned) {
						errc <- err
					}
					return
				}
				calls.Add(1)
			}
		}()
	}
	// Crash at a random point once the load has begun (or a worker
	// failed and stopped counting).
	at, deadline := int64(8+rand.Intn(256)), time.Now().Add(5*time.Second)
	for calls.Load() < at && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	c.Abandon()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("a call during Abandon failed with %v, want success or ErrAbandoned", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
