package store

// Cache is a write-back, readahead block cache layered over any Store
// (store.Cached(inner, opts)). The paper's I/O daemons service each
// request with synchronous store accesses, so the small interleaved
// accesses of the FLASH/tile workloads (4 KiB chunks) pay a syscall
// per fragment even after the wire traffic is collapsed into list or
// datatype requests; ROMIO-style buffering (Thakur et al.) and the
// server-side caching of "Fast Parallel I/O on Cluster Computers" put
// the next win below the protocol, in the daemon's storage path.
//
// Design:
//
//   - The stripe file is cut into fixed-size blocks (BlockSize,
//     sized to divide the stripe unit so a block never spans stripe
//     units). A block is the unit of fill, write-back and eviction.
//   - Writes land in cached blocks and are marked dirty; a background
//     flusher writes dirty blocks back (write-back). Dirty memory is
//     bounded: writers stall once DirtyHighWater is exceeded until
//     the flusher catches up.
//   - Reads fill whole blocks, so a 64 KiB fill services sixteen
//     4 KiB fragment reads with one backend access. Sequential block
//     access triggers asynchronous readahead of the next blocks.
//   - Eviction is LRU over all blocks; dirty victims are flushed
//     before being dropped.
//   - Data reaches the backend only as batches: fillRuns is the one
//     fill path (misses, readahead, the pre-read of a partly written
//     block) and issues one inner ReadBatch per fill; flushFileRuns
//     is the one flush path (flusher, Sync, eviction) and issues one
//     inner WriteBatch per file per pass.
//
// Concurrency: three lock levels, always acquired in this order —
// per-handle file lock (read-held by block operations and flushes,
// write-held by Truncate/Remove), then per-block lock (held across
// fill/flush backend I/O and data copies), then the cache-wide
// metadata lock (short-held; guards the handle/block maps, LRU list,
// byte accounting and sizes — never held across backend I/O). Block
// operations on different blocks therefore proceed in parallel
// end-to-end, matching the tagged-request concurrency of the daemon's
// transport.
//
// Consistency model (DESIGN.md §7): reads always observe the latest
// write through the cache. The backend store may lag by the dirty
// set; Sync(handle) — the TSync protocol request — flushes a handle's
// dirty blocks, and Close flushes everything. A crash of the daemon
// process loses at most the writes not yet flushed and not yet
// covered by a successful Sync.

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvfs/internal/ioseg"
)

// ErrAbandoned is returned by every operation on an abandoned cache.
// Abandon models the daemon process dying; a dead process answers
// nothing, so an operation that slipped in after the crash point must
// fail rather than silently succeed against state that was just
// dropped — otherwise a Sync racing the crash could acknowledge
// durability for data that no longer exists.
var ErrAbandoned = errors.New("store: cache abandoned (simulated daemon crash)")

// CacheOptions configures Cached.
type CacheOptions struct {
	// BlockSize is the cache block size in bytes (default 64 KiB).
	// Choose a divisor (or small multiple) of the file stripe unit so
	// blocks align with stripe-unit boundaries; the default divides
	// the paper's 16 KiB–1 MiB stripe range evenly.
	BlockSize int64
	// MaxBytes bounds the total bytes held in cached blocks (default
	// 64 MiB). The bound is soft by at most the blocks pinned by
	// in-flight requests.
	MaxBytes int64
	// DirtyHighWater bounds un-flushed (dirty) bytes: writers stall
	// above it until the flusher catches up (default MaxBytes/2).
	DirtyHighWater int64
	// Readahead is how many blocks to prefetch asynchronously once a
	// handle is read sequentially (default 4; negative disables).
	Readahead int
	// FlushInterval is the background write-back period (default
	// 50 ms; negative disables the periodic flusher — dirty blocks
	// then flush only on pressure, eviction, Sync and Close).
	FlushInterval time.Duration
}

func (o CacheOptions) withDefaults() CacheOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = 64 << 10
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 64 << 20
	}
	if o.MaxBytes < o.BlockSize {
		o.MaxBytes = o.BlockSize
	}
	if o.DirtyHighWater <= 0 {
		o.DirtyHighWater = o.MaxBytes / 2
	}
	if o.DirtyHighWater < o.BlockSize {
		o.DirtyHighWater = o.BlockSize
	}
	if o.Readahead == 0 {
		o.Readahead = 4
	}
	if o.Readahead < 0 {
		o.Readahead = 0
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = 50 * time.Millisecond
	}
	return o
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits         int64 // block lookups served from memory
	Misses       int64 // block fills from the backend
	Readaheads   int64 // blocks filled by the prefetcher
	Flushes      int64 // dirty blocks written back
	FlushedBytes int64 // bytes written back
	Evictions    int64 // blocks dropped by LRU pressure
	CachedBytes  int64 // bytes currently held in blocks
	DirtyBytes   int64 // bytes currently dirty
}

// CacheStatsProvider is implemented by stores that can report cache
// counters (Cache); the I/O daemon merges them into wire.ServerStats.
type CacheStatsProvider interface {
	CacheStats() CacheStats
}

// Cache implements Store over an inner Store. Create with Cached.
type Cache struct {
	inner Store
	opt   CacheOptions
	// limit is the backend's per-file size bound (Sizer, else
	// MaxFileSize): a write the backend would refuse must be refused
	// here, before it is acknowledged, not at flush time.
	limit int64

	// mu guards files, lru, the dirty set and every cacheFile's
	// metadata fields. It is never held across backend I/O.
	// cachedBytes/dirtyBytes are written under mu but read lock-free
	// on the hot path (budget checks).
	mu          sync.Mutex
	files       map[uint64]*cacheFile
	lru         list.List // of *cacheBlock; front = most recently used
	dirtySet    map[*cacheBlock]struct{}
	cachedBytes atomic.Int64
	dirtyBytes  atomic.Int64
	cleanCond   *sync.Cond // signalled as dirtyBytes drops
	flushErr    error      // first background flush error, surfaced by Sync/Close

	hits, misses, readaheads, flushes, flushedBytes, evictions atomic.Int64

	flushWake  chan struct{}
	closed     chan struct{}
	closing    bool // guarded by mu; blocks new prefetchers
	abandoned  atomic.Bool
	closeOnce  sync.Once
	flusherWG  sync.WaitGroup
	prefetchWG sync.WaitGroup
}

// cacheFile is the per-handle cache state.
type cacheFile struct {
	handle uint64
	// mu is read-held by block operations and flushes on this handle
	// and write-held by Truncate/Remove, which need exclusivity.
	mu sync.RWMutex

	// Guarded by Cache.mu:
	blocks      map[int64]*cacheBlock
	size        int64 // tracked logical size (>= backend size while dirty)
	sizeLoaded  bool  // size initialized from the backend
	lastBlock   int64 // last block read, for sequential detection
	seqRun      int   // consecutive sequential block reads
	prefetching bool  // a prefetch goroutine is active
}

// cacheBlock is one BlockSize-aligned span of a stripe file.
//
// Invariant: bytes of data beyond the file's tracked size are zero, so
// reads past EOF come back as holes without consulting the size.
type cacheBlock struct {
	file *cacheFile
	idx  int64

	// bmu is held across fill/flush backend I/O and data copies.
	bmu    sync.Mutex
	data   []byte // len == BlockSize
	loaded bool   // data is valid
	dirty  bool   // data ahead of the backend (guarded by bmu)

	// Guarded by Cache.mu:
	elem     *list.Element
	refs     int  // active users; nonzero pins against eviction
	evicting bool // an evictor has claimed this block
	gone     bool // removed from the block map (evicted/truncated/removed)
}

// Cached wraps inner in a write-back, readahead block cache. Close the
// returned Cache (not inner directly) to flush and release it.
func Cached(inner Store, opts CacheOptions) *Cache {
	c := &Cache{
		inner:     inner,
		opt:       opts.withDefaults(),
		limit:     MaxFileSize,
		files:     make(map[uint64]*cacheFile),
		dirtySet:  make(map[*cacheBlock]struct{}),
		flushWake: make(chan struct{}, 1),
		closed:    make(chan struct{}),
	}
	if sz, ok := inner.(Sizer); ok {
		c.limit = sz.MaxSize()
	}
	c.cleanCond = sync.NewCond(&c.mu)
	c.flusherWG.Add(1)
	go c.flusher()
	return c
}

// file returns (creating if needed) the per-handle state.
func (c *Cache) file(handle uint64) *cacheFile {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[handle]
	if !ok {
		f = &cacheFile{handle: handle, blocks: make(map[int64]*cacheBlock), lastBlock: -2}
		c.files[handle] = f
	}
	return f
}

// ensureSize initializes the tracked size from the backend on the
// handle's first use. A transient backend error is returned but not
// latched: the next operation retries. Callers hold f.mu (either
// mode).
func (c *Cache) ensureSize(f *cacheFile) error {
	c.mu.Lock()
	done := f.sizeLoaded
	c.mu.Unlock()
	if done {
		return nil
	}
	sz, err := c.inner.Size(f.handle)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if !f.sizeLoaded {
		if sz > f.size { // cached writes may already have extended
			f.size = sz
		}
		f.sizeLoaded = true
	}
	c.mu.Unlock()
	return nil
}

// block returns the cached block idx of f, creating it (unloaded) if
// absent, with its reference count incremented. Callers hold f.mu.R.
func (c *Cache) block(f *cacheFile, idx int64) *cacheBlock {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := f.blocks[idx]
	if !ok {
		b = &cacheBlock{file: f, idx: idx, data: make([]byte, c.opt.BlockSize)}
		f.blocks[idx] = b
		b.elem = c.lru.PushFront(b)
		c.cachedBytes.Add(c.opt.BlockSize)
	} else {
		c.lru.MoveToFront(b.elem)
	}
	b.refs++
	return b
}

// put releases a block reference taken by block().
func (c *Cache) put(b *cacheBlock) {
	c.mu.Lock()
	b.refs--
	c.mu.Unlock()
}

// finishWrite publishes a write's size extension and releases the
// block reference in one metadata round. Callers still hold b.bmu:
// the size must be visible before the block can be flushed, because
// write-back clips to it.
func (c *Cache) finishWrite(f *cacheFile, b *cacheBlock, end int64) {
	c.mu.Lock()
	if end > f.size {
		f.size = end
	}
	b.refs--
	c.mu.Unlock()
}

// blockSpans maps runs of consecutive blocks onto one batch: a span per
// run, a buffer per block holding its first n(b) bytes. It also returns
// the batch's byte count.
func (c *Cache) blockSpans(runs [][]*cacheBlock, n func(*cacheBlock) int64) ([]Span, int64) {
	nblocks := 0
	for _, run := range runs {
		nblocks += len(run)
	}
	spans := make([]Span, len(runs))
	bufs := make([][]byte, 0, nblocks)
	var total int64
	for i, run := range runs {
		start := len(bufs)
		for _, b := range run {
			buf := b.data[:n(b)]
			bufs = append(bufs, buf)
			total += int64(len(buf))
		}
		spans[i] = Span{Off: run[0].idx * c.opt.BlockSize, Bufs: bufs[start:len(bufs):len(bufs)]}
	}
	return spans, total
}

// fillRuns loads runs of consecutive uncached blocks — gaps between
// runs allowed — with ONE inner ReadBatch. It is the cache's only fill
// path: read misses, readahead and the pre-read of a partly written
// block all come through here. Callers hold f.mu.R and every block's
// bmu across all runs, taken in ascending index order (the deadlock
// rule all multi-block paths share). On success every block is marked
// loaded; on error none is (the blocks stay unloaded and the caller
// fails).
func (c *Cache) fillRuns(handle uint64, runs [][]*cacheBlock) error {
	bs := c.opt.BlockSize
	spans, _ := c.blockSpans(runs, func(*cacheBlock) int64 { return bs })
	if _, err := c.inner.ReadBatch(handle, spans); err != nil {
		return err
	}
	for _, run := range runs {
		for _, b := range run {
			b.loaded = true
		}
	}
	return nil
}

// markDirty flags the block dirty and accounts its bytes. Callers hold
// b.bmu.
func (c *Cache) markDirty(b *cacheBlock) {
	if b.dirty {
		return
	}
	b.dirty = true
	c.mu.Lock()
	c.dirtyBytes.Add(c.opt.BlockSize)
	c.dirtySet[b] = struct{}{}
	c.mu.Unlock()
	if c.dirtyBytes.Load() > c.opt.DirtyHighWater {
		c.wakeFlusher()
	}
}

// wakeFlusher nudges the background flusher without blocking.
func (c *Cache) wakeFlusher() {
	select {
	case c.flushWake <- struct{}{}:
	default:
	}
}

// flusher is the background write-back goroutine.
func (c *Cache) flusher() {
	defer c.flusherWG.Done()
	var tick *time.Ticker
	var tickC <-chan time.Time
	if c.opt.FlushInterval > 0 {
		tick = time.NewTicker(c.opt.FlushInterval)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case <-c.closed:
			return
		case <-c.flushWake:
		case <-tickC:
		}
		if err := c.flushDirty(); err != nil {
			c.mu.Lock()
			if c.flushErr == nil {
				c.flushErr = err
			}
			// Unstick writers waiting on the high-water mark: the
			// degraded state fails their writes instead.
			c.cleanCond.Broadcast()
			c.mu.Unlock()
		} else {
			// A clean pass drained everything that was pending, so a
			// transient backend error heals without intervention.
			c.clearErrIfDrained()
		}
	}
}

// flushDirty flushes a snapshot of the current dirty set, one batch
// per file.
func (c *Cache) flushDirty() error {
	c.mu.Lock()
	byFile := make(map[*cacheFile][]*cacheBlock)
	for b := range c.dirtySet {
		byFile[b.file] = append(byFile[b.file], b)
	}
	c.mu.Unlock()
	var first error
	for f, batch := range byFile {
		f.mu.RLock()
		err := c.flushFileRuns(f, batch)
		f.mu.RUnlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// flushFileRuns writes back one file's batch of dirty blocks: adjacent
// block indexes merge into sub-runs, and ALL the file's gapped sub-runs
// go down as ONE inner WriteBatch (DESIGN.md §11), each block clipped
// to the tracked size so write-back never extends a file past its
// logical end. It is the cache's only flush path — the flusher, Sync
// and eviction (a batch of one victim) all come through here. Callers
// hold f.mu (either mode); block locks are taken here, in ascending
// index order. Blocks that meanwhile went clean or gone are skipped
// (a gone block's fate was decided by Truncate/Remove). The batch is
// all-or-nothing: on error every block in it stays dirty for a later
// retry — the §7 crash contract is per run, and a batch is a set of
// runs that land or fail together.
func (c *Cache) flushFileRuns(f *cacheFile, batch []*cacheBlock) error {
	sort.Slice(batch, func(i, j int) bool { return batch[i].idx < batch[j].idx })
	for _, b := range batch {
		b.bmu.Lock()
	}
	defer func() {
		for _, b := range batch {
			b.bmu.Unlock()
		}
	}()
	c.mu.Lock()
	size := f.size
	gone := make([]bool, len(batch))
	for i, b := range batch {
		gone[i] = b.gone
	}
	c.mu.Unlock()
	bs := c.opt.BlockSize
	clipOf := func(b *cacheBlock) int64 { return min(max(size-b.idx*bs, 0), bs) }
	cleaned := make([]*cacheBlock, 0, len(batch))
	var subs [][]*cacheBlock
	for i := 0; i < len(batch); {
		b := batch[i]
		switch {
		case gone[i] || !b.dirty:
			i++
		case clipOf(b) == 0:
			// Nothing of this block is below the tracked size: the
			// data is dropped without a write.
			b.dirty = false
			cleaned = append(cleaned, b)
			i++
		default:
			// Collect a writable sub-run: consecutive, still-dirty,
			// present blocks with data below the tracked size. Since
			// the size clips at one point, every block but the
			// sub-run's last is written whole and the span stays
			// file-contiguous.
			j := i + 1
			for j < len(batch) && batch[j].idx == batch[j-1].idx+1 &&
				!gone[j] && batch[j].dirty && clipOf(batch[j]) > 0 {
				j++
			}
			subs = append(subs, batch[i:j])
			i = j
		}
	}
	var err error
	if len(subs) > 0 {
		spans, total := c.blockSpans(subs, clipOf)
		if _, err = c.inner.WriteBatch(f.handle, spans); err == nil {
			c.flushedBytes.Add(total)
			for _, sub := range subs {
				c.flushes.Add(int64(len(sub)))
				for _, sb := range sub {
					sb.dirty = false
					cleaned = append(cleaned, sb)
				}
			}
		}
	}
	if len(cleaned) > 0 {
		c.mu.Lock()
		for _, b := range cleaned {
			c.dirtyBytes.Add(-bs)
			delete(c.dirtySet, b)
		}
		c.cleanCond.Broadcast()
		c.mu.Unlock()
	}
	return err
}

// waitDirtyRoom stalls until dirty bytes drop below the high-water
// mark (bounded dirty memory). Called before taking any file lock so
// the flusher can always make progress. The common under-water case
// is a single atomic load.
func (c *Cache) waitDirtyRoom() {
	if c.dirtyBytes.Load() <= c.opt.DirtyHighWater {
		return
	}
	c.mu.Lock()
	for c.dirtyBytes.Load() > c.opt.DirtyHighWater && c.flushErr == nil {
		select {
		case <-c.closed:
			c.mu.Unlock()
			return
		default:
		}
		c.wakeFlusher()
		c.cleanCond.Wait()
	}
	c.mu.Unlock()
}

// evictIfNeeded enforces MaxBytes by dropping least-recently-used
// blocks, flushing dirty victims first. Called with no locks held.
// The common under-budget case is a single atomic load. If a dirty
// victim cannot be flushed (backend error), eviction falls back to
// clean victims so reads cannot grow the cache without bound while
// the write-back path is degraded.
func (c *Cache) evictIfNeeded() {
	if c.cachedBytes.Load() <= c.opt.MaxBytes {
		return
	}
	skipDirty := false
	for {
		c.mu.Lock()
		if c.cachedBytes.Load() <= c.opt.MaxBytes {
			c.mu.Unlock()
			return
		}
		var victim *cacheBlock
		for e := c.lru.Back(); e != nil; e = e.Prev() {
			b := e.Value.(*cacheBlock)
			if b.refs != 0 || b.evicting {
				continue
			}
			if skipDirty {
				// Membership in dirtySet is c.mu-guarded, unlike
				// b.dirty itself.
				if _, dirty := c.dirtySet[b]; dirty {
					continue
				}
			}
			victim = b
			break
		}
		if victim == nil { // everything pinned (or dirty-stuck); soft bound
			c.mu.Unlock()
			return
		}
		victim.evicting = true
		c.mu.Unlock()

		f := victim.file
		f.mu.RLock()
		err := c.flushFileRuns(f, []*cacheBlock{victim})
		f.mu.RUnlock()

		victim.bmu.Lock()
		c.mu.Lock()
		if err != nil {
			if c.flushErr == nil {
				c.flushErr = err
			}
			victim.evicting = false
			c.mu.Unlock()
			victim.bmu.Unlock()
			skipDirty = true
			continue
		}
		// Drop only if still idle and still clean: a request may have
		// re-referenced or re-dirtied the block since the flush.
		if victim.refs == 0 && !victim.dirty && !victim.gone {
			if f.blocks[victim.idx] == victim {
				delete(f.blocks, victim.idx)
			}
			c.lru.Remove(victim.elem)
			victim.gone = true
			c.cachedBytes.Add(-c.opt.BlockSize)
			c.evictions.Add(1)
		}
		victim.evicting = false
		c.mu.Unlock()
		victim.bmu.Unlock()
	}
}

// ReadAt implements Store: it serves p from cached blocks, filling
// misses from the backend a whole block at a time.
func (c *Cache) ReadAt(handle uint64, p []byte, off int64) (int, error) {
	if c.abandoned.Load() {
		return 0, ErrAbandoned
	}
	if err := checkExtent(off, len(p)); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	f := c.file(handle)
	first, last, err := c.readBlocks(f, p, off)
	if err != nil {
		return 0, err
	}
	c.noteSequential(f, first, last)
	c.evictIfNeeded()
	return len(p), nil
}

// readBlocks is the locked body of ReadAt; it returns the first and
// last block indexes touched. The walk is two-phase: loaded and
// past-EOF blocks are served and released as they are met, while
// blocks needing a backend fill stay locked and accumulate into runs
// of consecutive indexes — then ALL the runs, gaps included, fill with
// one batched backend submission (fillRuns). Block locks are taken in
// ascending index order, the deadlock rule all multi-block paths
// share; a fill run's locks are held until its data arrives.
func (c *Cache) readBlocks(f *cacheFile, p []byte, off int64) (first, last int64, err error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := c.ensureSize(f); err != nil {
		return 0, 0, err
	}
	bs := c.opt.BlockSize
	first, last = off/bs, (off+int64(len(p))-1)/bs
	copyOut := func(b *cacheBlock) {
		blockOff := b.idx * bs
		lo := max(off, blockOff)
		hi := min(off+int64(len(p)), blockOff+bs)
		copy(p[lo-off:hi-off], b.data[lo-blockOff:hi-blockOff])
	}
	var runs [][]*cacheBlock
	for idx := first; idx <= last; idx++ {
		b := c.block(f, idx)
		b.bmu.Lock()
		if b.loaded {
			c.hits.Add(1)
			copyOut(b)
			b.bmu.Unlock()
			c.put(b)
			continue
		}
		c.mu.Lock()
		size := f.size
		c.mu.Unlock()
		if idx*bs >= size {
			// Entirely past EOF: the backend holds only zeros here,
			// and data is already zeroed.
			b.loaded = true
			c.hits.Add(1)
			copyOut(b)
			b.bmu.Unlock()
			c.put(b)
			continue
		}
		// A fill is needed: keep the block locked and extend the
		// current run, or start a new (gapped) one.
		if n := len(runs); n > 0 && runs[n-1][len(runs[n-1])-1].idx == idx-1 {
			runs[n-1] = append(runs[n-1], b)
		} else {
			runs = append(runs, []*cacheBlock{b})
		}
	}
	if len(runs) > 0 {
		ferr := c.fillRuns(f.handle, runs)
		for _, run := range runs {
			for _, rb := range run {
				if ferr == nil {
					c.misses.Add(1)
					copyOut(rb)
				}
				rb.bmu.Unlock()
				c.put(rb)
			}
		}
		if ferr != nil {
			return 0, 0, ferr
		}
	}
	return first, last, nil
}

// WriteAt implements Store: it lands p in cached blocks (write-back),
// filling partially-covered blocks from the backend first. While a
// background flush error is pending the cache is degraded and writes
// fail fast — accepting more dirty data that provably cannot reach
// the backend would grow memory without bound and widen the crash
// loss window; a Sync that successfully re-flushes the stuck blocks
// clears the condition.
func (c *Cache) WriteAt(handle uint64, p []byte, off int64) (int, error) {
	if c.abandoned.Load() {
		return 0, ErrAbandoned
	}
	if err := checkExtent(off, len(p)); err != nil {
		return 0, err
	}
	if off+int64(len(p)) > c.limit {
		// The backend would refuse this extent at flush time; refuse
		// it now rather than acknowledge a write that cannot land.
		return 0, fmt.Errorf("store: extent [%d,+%d) exceeds backend file limit", off, len(p))
	}
	if len(p) == 0 {
		return 0, nil
	}
	c.waitDirtyRoom()
	c.mu.Lock()
	ferr := c.flushErr
	c.mu.Unlock()
	if ferr != nil {
		return 0, fmt.Errorf("store: cache write-back degraded: %w", ferr)
	}
	f := c.file(handle)
	if err := c.writeBlocks(f, p, off); err != nil {
		return 0, err
	}
	c.evictIfNeeded()
	return len(p), nil
}

// writeBlocks is the locked body of WriteAt.
func (c *Cache) writeBlocks(f *cacheFile, p []byte, off int64) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := c.ensureSize(f); err != nil {
		return err
	}
	bs := c.opt.BlockSize
	first, last := off/bs, (off+int64(len(p))-1)/bs
	for idx := first; idx <= last; idx++ {
		b := c.block(f, idx)
		b.bmu.Lock()
		blockOff := idx * bs
		lo := max(off, blockOff)
		hi := min(off+int64(len(p)), blockOff+bs)
		if !b.loaded {
			c.mu.Lock()
			size := f.size
			c.mu.Unlock()
			switch {
			case lo == blockOff && hi == blockOff+bs:
				// Full overwrite: no fill needed.
				b.loaded = true
			case blockOff >= size:
				// Entirely past EOF: the backend holds only zeros
				// here, and data is already zeroed.
				b.loaded = true
				c.hits.Add(1)
			default:
				if err := c.fillRuns(f.handle, [][]*cacheBlock{{b}}); err != nil {
					b.bmu.Unlock()
					c.put(b)
					return err
				}
				c.misses.Add(1)
			}
		} else {
			c.hits.Add(1)
		}
		copy(b.data[lo-blockOff:hi-blockOff], p[lo-off:hi-off])
		c.markDirty(b)
		c.finishWrite(f, b, hi)
		b.bmu.Unlock()
	}
	return nil
}

// ReadAtv implements VectorIO over ApplyPacked. It is kept only for the
// bench/ harness's traced wrappers; see VectorIO.
func (c *Cache) ReadAtv(handle uint64, segs ioseg.List, p []byte) (int, error) {
	return ApplyPacked(c, handle, segs, p, false)
}

// WriteAtv implements VectorIO over ApplyPacked, kept for bench/ only.
func (c *Cache) WriteAtv(handle uint64, segs ioseg.List, p []byte) (int, error) {
	return ApplyPacked(c, handle, segs, p, true)
}

// ReadBatch implements Store over the cache: each span is served
// through the block machinery (hits stay in memory; misses coalesce
// into batched backend fills via readBlocks), so callers that batch
// gapped runs keep one code path whether or not a cache interposes.
func (c *Cache) ReadBatch(handle uint64, spans []Span) (int, error) {
	if c.abandoned.Load() {
		return 0, ErrAbandoned
	}
	total, err := checkSpans(spans, MaxFileSize)
	if err != nil {
		return 0, err
	}
	if total == 0 {
		return 0, nil
	}
	f := c.file(handle)
	moved := 0
	for _, s := range spans {
		off := s.Off
		for _, buf := range s.Bufs {
			if len(buf) == 0 {
				continue
			}
			first, last, err := c.readBlocks(f, buf, off)
			if err != nil {
				return moved, err
			}
			c.noteSequential(f, first, last)
			off += int64(len(buf))
			moved += len(buf)
		}
	}
	c.evictIfNeeded()
	return moved, nil
}

// WriteBatch implements Store over the cache; the data lands in cached
// blocks and is flushed later, batched back out through flushFileRuns.
func (c *Cache) WriteBatch(handle uint64, spans []Span) (int, error) {
	if c.abandoned.Load() {
		return 0, ErrAbandoned
	}
	total, err := checkSpans(spans, c.limit)
	if err != nil {
		return 0, err
	}
	if total == 0 {
		return 0, nil
	}
	c.waitDirtyRoom()
	c.mu.Lock()
	ferr := c.flushErr
	c.mu.Unlock()
	if ferr != nil {
		return 0, fmt.Errorf("store: cache write-back degraded: %w", ferr)
	}
	f := c.file(handle)
	moved := 0
	for _, s := range spans {
		off := s.Off
		for _, buf := range s.Bufs {
			if len(buf) == 0 {
				continue
			}
			if err := c.writeBlocks(f, buf, off); err != nil {
				return moved, err
			}
			off += int64(len(buf))
			moved += len(buf)
		}
	}
	c.evictIfNeeded()
	return moved, nil
}

// IOStats implements IOStatsProvider by reporting the backend's
// counters: the cache's own contribution to the metric is precisely
// the submissions that do NOT reach the syscall layer.
func (c *Cache) IOStats() IOStats {
	if p, ok := c.inner.(IOStatsProvider); ok {
		return p.IOStats()
	}
	return IOStats{}
}

// noteSequential updates the readahead detector after a read of
// blocks [first,last] and triggers a prefetch when the handle is
// being read sequentially.
func (c *Cache) noteSequential(f *cacheFile, first, last int64) {
	if c.opt.Readahead <= 0 {
		return
	}
	c.mu.Lock()
	if first == f.lastBlock || first == f.lastBlock+1 {
		f.seqRun++
	} else {
		f.seqRun = 0
	}
	f.lastBlock = last
	start := last + 1
	trigger := f.seqRun >= 2 && !f.prefetching && !c.closing &&
		start*c.opt.BlockSize < f.size
	if trigger {
		f.prefetching = true
		c.prefetchWG.Add(1)
	}
	c.mu.Unlock()
	if trigger {
		go c.prefetch(f, start, c.opt.Readahead)
	}
}

// prefetch asynchronously fills up to n blocks of f starting at idx.
// The whole prefetch span is read as one backend submission: the run
// of uncached in-file blocks is collected (block locks ascending) and
// filled by fillRuns.
func (c *Cache) prefetch(f *cacheFile, idx int64, n int) {
	defer func() {
		c.mu.Lock()
		f.prefetching = false
		c.mu.Unlock()
		c.prefetchWG.Done()
	}()
	select {
	case <-c.closed:
		return
	default:
	}
	f.mu.RLock()
	c.mu.Lock()
	size := f.size
	c.mu.Unlock()
	var run []*cacheBlock
	for i := 0; i < n; i++ {
		target := idx + int64(i)
		if target*c.opt.BlockSize >= size {
			break
		}
		b := c.block(f, target)
		b.bmu.Lock()
		if b.loaded {
			// The sequential window has caught up with cached data;
			// stop rather than prefetch past it.
			b.bmu.Unlock()
			c.put(b)
			break
		}
		run = append(run, b)
	}
	var err error
	if len(run) > 0 {
		err = c.fillRuns(f.handle, [][]*cacheBlock{run})
	}
	for _, b := range run {
		if err == nil {
			c.readaheads.Add(1)
		}
		b.bmu.Unlock()
		c.put(b)
	}
	f.mu.RUnlock()
	c.evictIfNeeded()
}

// Size implements Store, reporting the tracked logical size (the
// backend size plus any un-flushed extension).
func (c *Cache) Size(handle uint64) (int64, error) {
	if c.abandoned.Load() {
		return 0, ErrAbandoned
	}
	f := c.file(handle)
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := c.ensureSize(f); err != nil {
		return 0, err
	}
	c.mu.Lock()
	sz := f.size
	c.mu.Unlock()
	return sz, nil
}

// Truncate implements Store: the backend is truncated first — a
// failure there must leave the cached state (including acknowledged
// dirty writes) untouched — then cached blocks past the new size are
// discarded (their dirty data is deliberately dropped) and a
// straddling block's tail is zeroed, all under the handle's exclusive
// lock.
func (c *Cache) Truncate(handle uint64, size int64) error {
	if c.abandoned.Load() {
		return ErrAbandoned // write-through: must not mutate the surviving backend
	}
	if size < 0 {
		return fmt.Errorf("store: negative size %d", size)
	}
	if size > c.limit {
		return fmt.Errorf("store: size %d exceeds backend file limit", size)
	}
	f := c.file(handle)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := c.ensureSize(f); err != nil {
		return err
	}
	if err := c.inner.Truncate(handle, size); err != nil {
		return err
	}
	bs := c.opt.BlockSize
	var straddler *cacheBlock
	c.mu.Lock()
	for idx, b := range f.blocks {
		switch {
		case idx*bs >= size:
			c.dropBlockLocked(f, b)
		case size < (idx+1)*bs:
			straddler = b
		}
	}
	f.size = size
	c.mu.Unlock()
	if straddler != nil {
		// Maintain the invariant that block bytes beyond the file size
		// are zero, so a later extension reads back holes.
		straddler.bmu.Lock()
		if straddler.loaded {
			tail := straddler.data[size-straddler.idx*bs:]
			for i := range tail {
				tail[i] = 0
			}
		}
		straddler.bmu.Unlock()
	}
	return nil
}

// dropBlockLocked removes a block from the cache without flushing.
// Callers hold c.mu and f.mu.W (so no block operation is in flight).
func (c *Cache) dropBlockLocked(f *cacheFile, b *cacheBlock) {
	if b.gone {
		return
	}
	delete(f.blocks, b.idx)
	c.lru.Remove(b.elem)
	b.gone = true
	c.cachedBytes.Add(-c.opt.BlockSize)
	if b.dirty {
		// Safe to read b.dirty: f.mu.W excludes every writer and
		// flusher of this file. The data is dropped deliberately.
		b.dirty = false
		c.dirtyBytes.Add(-c.opt.BlockSize)
		delete(c.dirtySet, b)
		c.cleanCond.Broadcast()
	}
}

// Remove implements Store. Backend first, like Truncate: a failed
// backend remove must leave the cached state (including acknowledged
// dirty writes) untouched, not report an un-removed file as empty.
func (c *Cache) Remove(handle uint64) error {
	if c.abandoned.Load() {
		return ErrAbandoned // write-through: must not mutate the surviving backend
	}
	f := c.file(handle)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := c.inner.Remove(handle); err != nil {
		return err
	}
	c.mu.Lock()
	for _, b := range f.blocks {
		c.dropBlockLocked(f, b)
	}
	f.size = 0
	f.lastBlock = -2
	f.seqRun = 0
	// A later ensureSize must not resurrect a stale backend size.
	f.sizeLoaded = true
	c.mu.Unlock()
	return nil
}

// clearErrIfDrained lifts the degraded state once no dirty data is
// pending anywhere: everything that previously failed to land has
// since been flushed (failed blocks stay dirty), so the error no
// longer describes data at risk.
func (c *Cache) clearErrIfDrained() {
	c.mu.Lock()
	if len(c.dirtySet) == 0 {
		c.flushErr = nil
	}
	c.mu.Unlock()
}

// Sync flushes the handle's dirty blocks to the backend (the TSync
// protocol operation). Failed background flushes leave their blocks
// dirty, so Sync's own pass retries them; an error is returned only
// while data — this handle's or, conservatively, any handle's — is
// still not durable, and a pass that drains everything heals the
// degraded state.
func (c *Cache) Sync(handle uint64) error {
	if c.abandoned.Load() {
		return ErrAbandoned
	}
	c.mu.Lock()
	f, ok := c.files[handle]
	c.mu.Unlock()
	var err error
	if ok {
		f.mu.RLock()
		c.mu.Lock()
		batch := make([]*cacheBlock, 0, len(c.dirtySet))
		for b := range c.dirtySet {
			if b.file == f {
				batch = append(batch, b)
			}
		}
		c.mu.Unlock()
		err = c.flushFileRuns(f, batch)
		f.mu.RUnlock()
	}
	c.clearErrIfDrained()
	if err == nil {
		c.mu.Lock()
		err = c.flushErr
		c.mu.Unlock()
	}
	// Re-check AFTER flushing: if the crash landed mid-Sync, the dirty
	// set this pass walked may already have been dropped, and success
	// would acknowledge durability for vanished data. (If the flag is
	// still down here, the batch was collected from intact state and
	// its flushes really landed.)
	if err == nil && c.abandoned.Load() {
		err = ErrAbandoned
	}
	return err
}

// SyncAll flushes every handle's dirty blocks. A clean pass covered
// every pending block — including any whose background flush failed
// earlier (they stay dirty) — so it heals the degraded state.
func (c *Cache) SyncAll() error {
	if c.abandoned.Load() {
		return ErrAbandoned
	}
	err := c.flushDirty()
	c.mu.Lock()
	if err == nil {
		c.flushErr = nil
	} else if c.flushErr == nil {
		c.flushErr = err
	}
	c.mu.Unlock()
	if err == nil && c.abandoned.Load() {
		err = ErrAbandoned // see Sync: never ack past the crash point
	}
	return err
}

// Handles implements Store. Dirty blocks are flushed first so handles
// created through the cache are visible in the backend enumeration.
func (c *Cache) Handles() ([]uint64, error) {
	if err := c.SyncAll(); err != nil {
		return nil, err
	}
	return c.inner.Handles()
}

// Close flushes all dirty blocks, stops the flusher and closes the
// backend.
func (c *Cache) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closing = true
		c.cleanCond.Broadcast()
		c.mu.Unlock()
		close(c.closed)
		c.flusherWG.Wait()
		c.prefetchWG.Wait()
		err = c.SyncAll()
	})
	if cerr := c.inner.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon drops every cached block and stops the flusher WITHOUT
// flushing — the cache equivalent of the daemon process dying. Tests
// use it to exercise the crash consistency model; the inner store is
// left untouched and still open.
func (c *Cache) Abandon() {
	// The flag goes up before any state is dropped: an operation that
	// observes intact state completed before the crash point; one that
	// runs after fails with ErrAbandoned (see Sync's closing check).
	c.abandoned.Store(true)
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closing = true
		c.cleanCond.Broadcast()
		c.mu.Unlock()
		close(c.closed)
		c.flusherWG.Wait()
		c.prefetchWG.Wait()
	})
	c.mu.Lock()
	c.files = make(map[uint64]*cacheFile)
	c.dirtySet = make(map[*cacheBlock]struct{})
	c.lru.Init()
	c.cachedBytes.Store(0)
	c.dirtyBytes.Store(0)
	c.mu.Unlock()
}

// CacheStats implements CacheStatsProvider.
func (c *Cache) CacheStats() CacheStats {
	c.mu.Lock()
	cached, dirty := c.cachedBytes.Load(), c.dirtyBytes.Load()
	c.mu.Unlock()
	return CacheStats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Readaheads:   c.readaheads.Load(),
		Flushes:      c.flushes.Load(),
		FlushedBytes: c.flushedBytes.Load(),
		Evictions:    c.evictions.Load(),
		CachedBytes:  cached,
		DirtyBytes:   dirty,
	}
}
