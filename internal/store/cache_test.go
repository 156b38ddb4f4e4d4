package store

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// newTestCache returns a cache over a fresh Mem store with a small,
// eviction-prone geometry and the background flusher disabled so tests
// control flush timing.
func newTestCache(t *testing.T, opts CacheOptions) (*Cache, *Mem) {
	t.Helper()
	inner := NewMem()
	if opts.BlockSize == 0 {
		opts.BlockSize = 512
	}
	if opts.FlushInterval == 0 {
		opts.FlushInterval = -1 // flush only on pressure/sync/close
	}
	c := Cached(inner, opts)
	t.Cleanup(func() { c.Close() })
	return c, inner
}

func TestCacheReadWriteRoundTrip(t *testing.T) {
	c, _ := newTestCache(t, CacheOptions{})
	data := []byte("write-back cached stripe data")
	if _, err := c.WriteAt(1, data, 300); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := c.ReadAt(1, got, 300); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q", got)
	}
	if sz, _ := c.Size(1); sz != 300+int64(len(data)) {
		t.Fatalf("size = %d", sz)
	}
}

func TestCacheWriteBackIsDeferred(t *testing.T) {
	c, inner := newTestCache(t, CacheOptions{})
	if _, err := c.WriteAt(1, []byte("dirty"), 0); err != nil {
		t.Fatal(err)
	}
	// The write must not have reached the backend yet (write-back).
	if sz, _ := inner.Size(1); sz != 0 {
		t.Fatalf("backend size before sync = %d", sz)
	}
	if err := c.Sync(1); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 5)
	if _, err := inner.ReadAt(1, p, 0); err != nil {
		t.Fatal(err)
	}
	if string(p) != "dirty" {
		t.Fatalf("backend after sync = %q", p)
	}
	if sz, _ := inner.Size(1); sz != 5 {
		t.Fatalf("backend size after sync = %d (flush must clip to logical size)", sz)
	}
}

func TestCacheHitMissCounting(t *testing.T) {
	c, inner := newTestCache(t, CacheOptions{})
	// Seed the backend before the cache's first access so the cold
	// read has real data to fill.
	if _, err := inner.WriteAt(1, make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := c.ReadAt(1, buf, 0); err != nil { // cold: one fill
		t.Fatal(err)
	}
	if _, err := c.ReadAt(1, buf, 64); err != nil { // same block: hit
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss 1 hit", st)
	}
}

// TestCacheReadPastEOFAvoidsBackend: blocks wholly beyond the tracked
// size are known holes; reading them must not touch the backend.
func TestCacheReadPastEOFAvoidsBackend(t *testing.T) {
	c, _ := newTestCache(t, CacheOptions{BlockSize: 512})
	if _, err := c.WriteAt(1, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{0xFF}, 512)
	if _, err := c.ReadAt(1, p, 4096); err != nil { // block 8: hole
		t.Fatal(err)
	}
	if !bytes.Equal(p, make([]byte, 512)) {
		t.Fatal("hole read not zero")
	}
	if st := c.CacheStats(); st.Misses != 0 {
		t.Fatalf("past-EOF read filled from backend: %+v", st)
	}
}

func TestCacheFullBlockWriteSkipsFill(t *testing.T) {
	c, inner := newTestCache(t, CacheOptions{BlockSize: 512})
	// Seed the backend so a fill would be observable as a miss.
	if _, err := inner.WriteAt(1, make([]byte, 2048), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(1, bytes.Repeat([]byte{7}, 512), 512); err != nil {
		t.Fatal(err)
	}
	if st := c.CacheStats(); st.Misses != 0 {
		t.Fatalf("full-block overwrite filled from backend: %+v", st)
	}
	got := make([]byte, 512)
	if _, err := c.ReadAt(1, got, 512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{7}, 512)) {
		t.Fatal("full-block write lost")
	}
}

func TestCacheEvictionBoundsMemory(t *testing.T) {
	c, _ := newTestCache(t, CacheOptions{BlockSize: 512, MaxBytes: 4 * 512})
	// Touch 64 distinct blocks; the cache may hold only 4.
	buf := make([]byte, 512)
	for i := int64(0); i < 64; i++ {
		if _, err := c.WriteAt(1, buf, i*512); err != nil {
			t.Fatal(err)
		}
	}
	st := c.CacheStats()
	if st.CachedBytes > 4*512 {
		t.Fatalf("cached bytes = %d, budget 2048", st.CachedBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	// Evicted dirty blocks must have been flushed, not dropped: every
	// byte must read back.
	got := make([]byte, 64*512)
	if _, err := c.ReadAt(1, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64*512)) {
		t.Fatal("eviction lost data")
	}
}

// TestCacheFillsOnlyWhatIsRead: the cache reads its backend only on a
// request's behalf. Block-by-block sequential reads of a cold file fill
// exactly the blocks they touch: one backend batch per read, and
// nothing more once the last read has returned, though the file runs
// on past it.
func TestCacheFillsOnlyWhatIsRead(t *testing.T) {
	const bs, nblk = 512, 16
	inner := NewMem()
	img := make([]byte, 2*nblk*bs)
	for i := range img {
		img[i] = byte(i*3 + 1)
	}
	if _, err := inner.WriteAt(1, img, 0); err != nil {
		t.Fatal(err)
	}
	c := Cached(inner, CacheOptions{BlockSize: bs, FlushInterval: -1})
	start := inner.IOStats()
	buf := make([]byte, bs)
	for blk := int64(0); blk < nblk; blk++ {
		before := inner.IOStats()
		if _, err := c.ReadAt(1, buf, blk*bs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, img[blk*bs:(blk+1)*bs]) {
			t.Fatalf("block %d diverges from the backend image", blk)
		}
		if d := inner.IOStats().Sub(before); d.Submissions != 1 || d.BytesRead != bs {
			t.Fatalf("read of block %d: %d backend batches, %d bytes; want 1, %d", blk, d.Submissions, d.BytesRead, bs)
		}
		// Requests arrive spaced out, as off a network: any goroutine
		// the read started gets to run before the next one.
		time.Sleep(200 * time.Microsecond)
	}
	st := c.CacheStats()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := inner.IOStats().Sub(start); d.Submissions != nblk || d.BytesRead != nblk*bs || d.BytesWritten != 0 {
		t.Fatalf("backend saw %d batches, %d bytes read, %d written; want %d, %d, 0",
			d.Submissions, d.BytesRead, d.BytesWritten, nblk, nblk*bs)
	}
	if st.Misses != nblk || st.Hits != 0 {
		t.Fatalf("misses %d, hits %d; want %d and 0", st.Misses, st.Hits, nblk)
	}
}

func TestCacheTruncateDropsAndZeroes(t *testing.T) {
	c, _ := newTestCache(t, CacheOptions{BlockSize: 512})
	if _, err := c.WriteAt(1, bytes.Repeat([]byte{0xEE}, 2048), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Truncate(1, 700); err != nil {
		t.Fatal(err)
	}
	if sz, _ := c.Size(1); sz != 700 {
		t.Fatalf("size after shrink = %d", sz)
	}
	// Grow again: the region beyond 700 must read as zeros, not the
	// stale 0xEE bytes from the cached blocks.
	if err := c.Truncate(1, 2048); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2048)
	if _, err := c.ReadAt(1, got, 0); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{0xEE}, 700), make([]byte, 2048-700)...)
	if !bytes.Equal(got, want) {
		t.Fatal("stale cached bytes exposed after shrink+grow")
	}
}

func TestCacheRemoveDiscardsDirty(t *testing.T) {
	c, inner := newTestCache(t, CacheOptions{})
	if _, err := c.WriteAt(1, []byte("doomed"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(1); err != nil {
		t.Fatal(err)
	}
	if sz, _ := c.Size(1); sz != 0 {
		t.Fatalf("size after remove = %d", sz)
	}
	if err := c.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if sz, _ := inner.Size(1); sz != 0 {
		t.Fatalf("remove resurrected backend data: size %d", sz)
	}
	if st := c.CacheStats(); st.DirtyBytes != 0 {
		t.Fatalf("dirty accounting leaked: %+v", st)
	}
}

func TestCacheCloseFlushes(t *testing.T) {
	inner := NewMem()
	c := Cached(inner, CacheOptions{BlockSize: 512, FlushInterval: -1})
	if _, err := c.WriteAt(3, []byte("flushed on close"), 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 16)
	if _, err := inner.ReadAt(3, p, 100); err != nil {
		t.Fatal(err)
	}
	if string(p) != "flushed on close" {
		t.Fatalf("backend after close = %q", p)
	}
}

func TestCacheAbandonLosesOnlyUnsynced(t *testing.T) {
	root := t.TempDir()
	inner, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	c := Cached(inner, CacheOptions{BlockSize: 512, FlushInterval: -1})
	if _, err := c.WriteAt(7, []byte("durable"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(7); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(7, []byte("volatile"), 4096); err != nil {
		t.Fatal(err)
	}
	c.Abandon() // crash: dirty block at 4096 is lost
	inner.Close()

	re, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	p := make([]byte, 7)
	if _, err := re.ReadAt(7, p, 0); err != nil {
		t.Fatal(err)
	}
	if string(p) != "durable" {
		t.Fatalf("synced data lost in crash: %q", p)
	}
	if sz, _ := re.Size(7); sz != 7 {
		t.Fatalf("size after crash = %d, want 7 (unsynced write must not have landed)", sz)
	}
}

func TestCacheDirtyBackpressure(t *testing.T) {
	inner := NewMem()
	c := Cached(inner, CacheOptions{
		BlockSize:      512,
		MaxBytes:       64 * 512,
		DirtyHighWater: 4 * 512,
		FlushInterval:  time.Millisecond,
	})
	defer c.Close()
	// Write far more dirty data than the high-water mark; the
	// flusher must drain while writers stall, so this terminates and
	// everything lands.
	for i := int64(0); i < 256; i++ {
		if _, err := c.WriteAt(1, bytes.Repeat([]byte{byte(i)}, 512), i*512); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.CacheStats(); st.Flushes == 0 {
		t.Fatalf("no background flushes: %+v", st)
	}
	if err := c.Sync(1); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 256; i++ {
		p := make([]byte, 512)
		if _, err := inner.ReadAt(1, p, i*512); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, bytes.Repeat([]byte{byte(i)}, 512)) {
			t.Fatalf("block %d corrupt after flush", i)
		}
	}
}

func TestMemWriteOverflowRejected(t *testing.T) {
	s := NewMem()
	// Offset near MaxInt64: off+len wraps negative, which used to skip
	// the growth check and panic in copy (remote DoS through the iod).
	if _, err := s.WriteAt(1, []byte("x"), 1<<62); err == nil {
		t.Fatal("overflowing write accepted")
	}
	if _, err := s.WriteAt(1, make([]byte, 2), (1<<63)-2); err == nil {
		t.Fatal("wrapping write accepted")
	}
	if err := s.Truncate(1, (1<<63)-1); err == nil {
		t.Fatal("absurd truncate accepted")
	}
}

func TestDirWriteOverflowRejected(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.WriteAt(1, make([]byte, 2), (1<<63)-2); err == nil {
		t.Fatal("wrapping write accepted")
	}
	if _, err := d.ReadAt(1, make([]byte, 2), (1<<63)-2); err == nil {
		t.Fatal("wrapping read accepted")
	}
	if err := d.Truncate(1, -1); err == nil {
		t.Fatal("negative truncate accepted")
	}
}

func TestCacheOverflowRejected(t *testing.T) {
	c, _ := newTestCache(t, CacheOptions{})
	if _, err := c.WriteAt(1, make([]byte, 2), (1<<63)-2); err == nil {
		t.Fatal("wrapping write accepted")
	}
	if _, err := c.ReadAt(1, make([]byte, 2), (1<<63)-2); err == nil {
		t.Fatal("wrapping read accepted")
	}
	if err := c.Truncate(1, -5); err == nil {
		t.Fatal("negative truncate accepted")
	}
}

// faultStore fails WriteBatch — the cache's only write path into its
// backend — while tripped, for degraded-mode tests.
type faultStore struct {
	Store
	tripped atomic.Bool
}

func (s *faultStore) WriteBatch(h uint64, spans []Span) (int, error) {
	if s.tripped.Load() {
		return 0, errors.New("injected backend write failure")
	}
	return s.Store.WriteBatch(h, spans)
}

// countingStore counts the data calls a cache makes into its backend.
type countingStore struct {
	Store
	readAt, writeAt, readBatch, writeBatch atomic.Int64
}

func (s *countingStore) ReadAt(h uint64, p []byte, off int64) (int, error) {
	s.readAt.Add(1)
	return s.Store.ReadAt(h, p, off)
}

func (s *countingStore) WriteAt(h uint64, p []byte, off int64) (int, error) {
	s.writeAt.Add(1)
	return s.Store.WriteAt(h, p, off)
}

func (s *countingStore) ReadBatch(h uint64, spans []Span) (int, error) {
	s.readBatch.Add(1)
	return s.Store.ReadBatch(h, spans)
}

func (s *countingStore) WriteBatch(h uint64, spans []Span) (int, error) {
	s.writeBatch.Add(1)
	return s.Store.WriteBatch(h, spans)
}

// calls returns the counters as one comparable value.
func (s *countingStore) calls() [4]int64 {
	return [4]int64{s.readAt.Load(), s.writeAt.Load(), s.readBatch.Load(), s.writeBatch.Load()}
}

// TestCacheBackendSeesOnlyBatches pins the cache's one fill path and
// one flush path: no data reaches the backend through ReadAt/WriteAt;
// every fill — a gapped miss set, the pre-read of a partly written
// block — is exactly one ReadBatch; every flush pass is
// exactly one WriteBatch per file, a flush forced by eviction included.
// A multi-span batch fills all its cold blocks with one ReadBatch, and
// a block its buffers cover whole between them is not filled at all.
func TestCacheBackendSeesOnlyBatches(t *testing.T) {
	const bs = 512
	inner := &countingStore{Store: NewMem()}
	img := make([]byte, 64*bs)
	for i := range img {
		img[i] = byte(i*7 + 1)
	}
	for _, h := range []uint64{1, 2} {
		if _, err := inner.Store.WriteAt(h, img, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The flusher never wakes on its own: only Sync and eviction flush.
	c := Cached(inner, CacheOptions{BlockSize: bs, MaxBytes: 16 * bs, DirtyHighWater: 1 << 30,
		FlushInterval: -1})
	defer c.Close()
	step := func(what string, want [4]int64, f func()) {
		t.Helper()
		before := inner.calls()
		f()
		got := inner.calls()
		for i := range got {
			got[i] -= before[i]
		}
		if got != want {
			t.Fatalf("%s: backend saw ReadAt/WriteAt/ReadBatch/WriteBatch = %v, want %v", what, got, want)
		}
	}
	read := func(off, n int64) {
		t.Helper()
		p := make([]byte, n)
		if _, err := c.ReadAt(1, p, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, img[off:off+n]) {
			t.Fatalf("read [%d,+%d) diverges from the backend image", off, n)
		}
	}

	step("warm block 1", [4]int64{0, 0, 1, 0}, func() { read(bs, bs) })
	// Blocks 0, 2 and 3 miss: two gapped runs, one fill.
	step("gapped miss set", [4]int64{0, 0, 1, 0}, func() { read(0, 4*bs) })
	step("partial-write pre-read", [4]int64{0, 0, 1, 0}, func() {
		if _, err := c.WriteAt(1, []byte("partial"), 20*bs+100); err != nil {
			t.Fatal(err)
		}
	})
	// Dirty runs in two files, gapped within file 1: one batch per file.
	step("flush pass", [4]int64{0, 0, 0, 2}, func() {
		for _, off := range []int64{21 * bs, 24 * bs} {
			if _, err := c.WriteAt(1, img[off:off+bs], off); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.WriteAt(2, img[:2*bs], 0); err != nil {
			t.Fatal(err)
		}
		if err := c.SyncAll(); err != nil {
			t.Fatal(err)
		}
	})

	// Whole-block writes far past the budget: the 9 clean blocks are
	// dropped first, then every eviction flushes its dirty victim as
	// one batch of one block, and nothing else reaches the backend.
	before := c.CacheStats()
	step("eviction", [4]int64{0, 0, 0, 14}, func() {
		for blk := int64(30); blk < 60; blk++ {
			if _, err := c.WriteAt(1, img[blk*bs:(blk+1)*bs], blk*bs); err != nil {
				t.Fatal(err)
			}
		}
	})
	st := c.CacheStats()
	if evicted, flushed := st.Evictions-before.Evictions, st.Flushes-before.Flushes; evicted != 23 || flushed != 14 {
		t.Fatalf("eviction: %d evictions flushed %d blocks, want 23 and 14", evicted, flushed)
	}

	// A batch is one walk: however many blocks its pieces touch, their
	// fills go down as one backend batch. Everything cached is written
	// back first, so the evictions below reach the backend not at all.
	if err := c.SyncAll(); err != nil {
		t.Fatal(err)
	}
	gapped := make([]byte, 5*100)
	var spans []Span
	for i := int64(0); i < 5; i++ {
		spans = append(spans, Span{Off: (20+2*i)*bs + 50, Bufs: [][]byte{gapped[i*100 : i*100+60], gapped[i*100+60 : (i+1)*100]}})
	}
	step("gapped read batch over 5 cold blocks", [4]int64{0, 0, 1, 0}, func() {
		if _, err := c.ReadBatch(2, spans); err != nil {
			t.Fatal(err)
		}
	})
	for i, s := range spans {
		if got := append(append([]byte(nil), s.Bufs[0]...), s.Bufs[1]...); !bytes.Equal(got, img[s.Off:s.Off+100]) {
			t.Fatalf("gapped read span %d diverges from the backend image", i)
		}
	}
	part := []byte("partly")
	step("write batch partly covering 3 cold blocks", [4]int64{0, 0, 1, 0}, func() {
		if _, err := c.WriteBatch(2, []Span{
			{Off: 30*bs + 10, Bufs: [][]byte{part}},
			{Off: 31*bs + 200, Bufs: [][]byte{part, part}},
			{Off: 32*bs + bs - 6, Bufs: [][]byte{part}},
		}); err != nil {
			t.Fatal(err)
		}
	})
	whole := img[40*bs : 41*bs]
	step("write batch covering a block whole across buffers", [4]int64{0, 0, 0, 0}, func() {
		if _, err := c.WriteBatch(2, []Span{
			{Off: 40 * bs, Bufs: [][]byte{whole[:100], nil, whole[100:300]}},
			{Off: 40*bs + 300, Bufs: [][]byte{whole[300:]}},
		}); err != nil {
			t.Fatal(err)
		}
	})
	want := bytes.Clone(img[30*bs : 33*bs])
	copy(want[10:], part)
	copy(want[bs+200:], part)
	copy(want[bs+206:], part)
	copy(want[3*bs-6:], part)
	got := make([]byte, 3*bs)
	if _, err := c.ReadAt(2, got, 30*bs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("partial write batch lost the pre-read bytes or the written ones")
	}
}

// TestCacheRecycledBufferReadsZeroPastEOF: evicted buffers come back
// holding another file's bytes, and the cache may rely on zeros only
// where it zeroed them. A block loaded past EOF and a block straddling a
// truncate point must read back zero everywhere but the written bytes.
func TestCacheRecycledBufferReadsZeroPastEOF(t *testing.T) {
	const bs = 512
	c, _ := newTestCache(t, CacheOptions{BlockSize: bs, MaxBytes: 4 * bs})
	ff := bytes.Repeat([]byte{0xFF}, bs)
	// Cycle handle 1 through more blocks than the cache holds, so the
	// free list is stocked with 0xFF buffers before each handle-2 step.
	soil := func() {
		t.Helper()
		for i := int64(0); i < 8; i++ {
			if _, err := c.WriteAt(1, ff, i*bs); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(what string, blk int64, marks map[int64]string) {
		t.Helper()
		want := make([]byte, bs)
		for off, s := range marks {
			copy(want[off:], s)
		}
		got := make([]byte, bs)
		if _, err := c.ReadAt(2, got, blk*bs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: block %d reads back %x", what, blk, got)
		}
	}

	soil()
	if c.CacheStats().Evictions == 0 {
		t.Fatal("no evictions: nothing was recycled")
	}
	if _, err := c.WriteAt(2, []byte("past"), 5*bs+100); err != nil {
		t.Fatal(err)
	}
	check("partial write past EOF", 5, map[int64]string{100: "past"})

	soil()
	if err := c.Truncate(2, 7*bs+200); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(2, []byte("mid"), 7*bs+50); err != nil {
		t.Fatal(err)
	}
	check("partial write below a straddling truncate", 7, map[int64]string{50: "mid"})
	check("untouched block below EOF", 6, nil)

	soil()
	if _, err := c.WriteAt(2, []byte("tail"), 7*bs+300); err != nil {
		t.Fatal(err)
	}
	check("partial write past a straddling truncate", 7, map[int64]string{50: "mid", 300: "tail"})
	if err := c.Truncate(2, 7*bs+52); err != nil {
		t.Fatal(err)
	}
	soil()
	if err := c.Truncate(2, 8*bs); err != nil {
		t.Fatal(err)
	}
	check("shrink then grow across the straddler", 7, map[int64]string{50: "mi"})
}

// TestCacheFailedFillNeverServed: a fill that fails part-way leaves
// garbage in its blocks' (recycled) buffers; those blocks must stay
// unloaded, so the next access fills them again rather than serving it.
func TestCacheFailedFillNeverServed(t *testing.T) {
	const bs = 512
	inner := &faultReadStore{Store: NewMem()}
	img := make([]byte, 16*bs)
	for i := range img {
		img[i] = byte(i*13 + 5)
	}
	if _, err := inner.Store.WriteAt(2, img, 0); err != nil {
		t.Fatal(err)
	}
	c := Cached(inner, CacheOptions{BlockSize: bs, MaxBytes: 4 * bs, FlushInterval: -1})
	defer c.Close()
	for i := int64(0); i < 8; i++ {
		if _, err := c.WriteAt(1, bytes.Repeat([]byte{0xFF}, bs), i*bs); err != nil {
			t.Fatal(err)
		}
	}
	inner.tripped.Store(true)
	if _, err := c.ReadAt(2, make([]byte, 2*bs), 3*bs); err == nil {
		t.Fatal("read succeeded through a failing fill")
	}
	if _, err := c.WriteAt(2, []byte("lost"), 9*bs+10); err == nil {
		t.Fatal("partial write succeeded through a failing pre-read")
	}
	inner.tripped.Store(false)
	got := make([]byte, 16*bs)
	if _, err := c.ReadAt(2, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("a failed fill's bytes (or a failed write's) were served as data")
	}
}

// faultReadStore fails ReadBatch — the cache's only fill path — while
// tripped, after scribbling over the buffers as a torn read would.
type faultReadStore struct {
	Store
	tripped atomic.Bool
}

func (s *faultReadStore) ReadBatch(h uint64, spans []Span) (int, error) {
	if s.tripped.Load() {
		for _, sp := range spans {
			for _, b := range sp.Bufs {
				for i := range b {
					b[i] = 0xEE
				}
			}
		}
		return 0, errors.New("injected backend read failure")
	}
	return s.Store.ReadBatch(h, spans)
}

// TestCacheDegradesOnFlushFailure pins the bounded-memory contract
// under a broken backend: once write-back fails, further writes fail
// fast instead of accumulating dirty data that can never land, and a
// successful Sync heals the cache.
func TestCacheDegradesOnFlushFailure(t *testing.T) {
	inner := &faultStore{Store: NewMem()}
	c := Cached(inner, CacheOptions{BlockSize: 512, MaxBytes: 2 * 512, FlushInterval: -1})
	defer c.Close()
	inner.tripped.Store(true)
	// Overrun the cache so eviction must flush a dirty victim, which
	// fails and trips the degraded state.
	var degraded bool
	for i := int64(0); i < 16; i++ {
		if _, err := c.WriteAt(1, make([]byte, 512), i*512); err != nil {
			degraded = true
			break
		}
	}
	if !degraded {
		t.Fatal("writes kept succeeding with a failing backend")
	}
	// Heal the backend; Sync must flush the stuck blocks and recover.
	inner.tripped.Store(false)
	if err := c.Sync(1); err != nil {
		t.Fatalf("sync after heal: %v", err)
	}
	if _, err := c.WriteAt(1, []byte("recovered"), 0); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}

// TestCacheRespectsBackendLimit: a write the Mem backend would refuse
// must be refused by the cache up front, not acknowledged and then
// lost when its flush fails (one such request used to degrade the
// whole cache permanently).
func TestCacheRespectsBackendLimit(t *testing.T) {
	c, _ := newTestCache(t, CacheOptions{})
	if _, err := c.WriteAt(1, []byte("x"), MemMaxFileSize+1); err == nil {
		t.Fatal("write beyond Mem limit accepted by cache")
	}
	if err := c.Truncate(1, MemMaxFileSize+1); err == nil {
		t.Fatal("truncate beyond Mem limit accepted by cache")
	}
	// The cache must remain healthy.
	if _, err := c.WriteAt(1, []byte("fine"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(1); err != nil {
		t.Fatal(err)
	}
}

// TestCacheTruncateFailureKeepsCachedData: if the backend truncate
// fails, acknowledged cached writes must still be readable.
func TestCacheTruncateFailureKeepsCachedData(t *testing.T) {
	inner := &faultTruncStore{Store: NewMem()}
	c := Cached(inner, CacheOptions{BlockSize: 512, FlushInterval: -1})
	defer c.Close()
	if _, err := c.WriteAt(1, []byte("keep me"), 1000); err != nil {
		t.Fatal(err)
	}
	inner.tripped.Store(true)
	if err := c.Truncate(1, 10); err == nil {
		t.Fatal("failing backend truncate reported success")
	}
	inner.tripped.Store(false)
	p := make([]byte, 7)
	if _, err := c.ReadAt(1, p, 1000); err != nil {
		t.Fatal(err)
	}
	if string(p) != "keep me" {
		t.Fatalf("failed truncate destroyed cached write: %q", p)
	}
}

type faultTruncStore struct {
	Store
	tripped atomic.Bool
}

func (s *faultTruncStore) Truncate(h uint64, size int64) error {
	if s.tripped.Load() {
		return errors.New("injected truncate failure")
	}
	return s.Store.Truncate(h, size)
}

// TestCacheSizeErrorNotLatched: a transient backend Size failure on a
// handle's first access must not brick the handle.
func TestCacheSizeErrorNotLatched(t *testing.T) {
	inner := &faultSizeStore{Store: NewMem()}
	c := Cached(inner, CacheOptions{BlockSize: 512, FlushInterval: -1})
	defer c.Close()
	inner.tripped.Store(true)
	if _, err := c.ReadAt(1, make([]byte, 8), 0); err == nil {
		t.Fatal("read succeeded despite Size failure")
	}
	inner.tripped.Store(false)
	if _, err := c.WriteAt(1, []byte("recovered"), 0); err != nil {
		t.Fatalf("handle bricked after transient Size error: %v", err)
	}
}

type faultSizeStore struct {
	Store
	tripped atomic.Bool
}

func (s *faultSizeStore) Size(h uint64) (int64, error) {
	if s.tripped.Load() {
		return 0, errors.New("injected size failure")
	}
	return s.Store.Size(h)
}
