package store

// Cache is a write-back block cache layered over any Store
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
//     4 KiB fragment reads with one backend access. A block is filled
//     only when a request touches it: readahead of sequential reads is
//     left to the backend (the page cache under Dir), so the flusher
//     is the cache's one goroutine.
//   - Eviction is LRU over all blocks; dirty victims are flushed
//     before being dropped.
//   - Block buffers are the MaxBytes/BlockSize slots of one slab the
//     cache reserves once (newSlab): an anonymous mapping, faulted in
//     as slots are first used, so the cache's resident memory is its
//     budget, not the budget plus the collector's growth allowance.
//     A gone block's slot goes back to a free list that new blocks
//     draw from. A block created while every slot is held (blocks
//     pinned past the budget) gets a heap spill buffer, dropped when
//     the block goes. The slab is unmapped by a cleanup once the
//     Cache is unreachable, never by Close or Abandon, so a straggler
//     that still holds a block never touches unmapped memory.
//   - A request moves in one pass: ReadBatch/WriteBatch — ReadAt and
//     WriteAt are one-span batches — make one walk over every block
//     the batch touches (Cache.walk), so its pieces share one pin
//     round, one backend fill and one publish round.
//   - Data reaches the backend only as batches: fillRuns is the one
//     fill path (misses and the pre-read of a partly written block)
//     and issues one inner ReadBatch per fill; flushFileRuns is the
//     one flush path (flusher, Sync, eviction) and issues one inner
//     WriteBatch per file per pass.
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
	"cmp"
	"container/list"
	"errors"
	"fmt"
	"runtime"
	"slices"
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
	// 64 MiB), and is reserved once as the blocks' slab. Resident
	// memory is about MaxBytes: the slab is touched only as blocks are
	// used, and the bound is soft only by the blocks pinned past it by
	// in-flight requests, which get heap buffers of their own until
	// they leave the cache.
	MaxBytes int64
	// DirtyHighWater bounds un-flushed (dirty) bytes: writers stall
	// above it until the flusher catches up (default MaxBytes/2).
	DirtyHighWater int64
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
	if o.FlushInterval == 0 {
		o.FlushInterval = 50 * time.Millisecond
	}
	return o
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits         int64 // block lookups served from memory
	Misses       int64 // block fills from the backend
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

	// slab backs every block buffer but spills: MaxBytes/BlockSize
	// slots of BlockSize bytes.
	slab []byte

	// mu guards files, lru, the dirty set, the free list and every
	// cacheFile's metadata fields. It is never held across backend I/O.
	// cachedBytes/dirtyBytes are written under mu but read lock-free
	// on the hot path (budget checks).
	mu          sync.Mutex
	files       map[uint64]*cacheFile
	lru         list.List // of *cacheBlock; front = most recently used
	dirtySet    map[*cacheBlock]struct{}
	free        [][]byte // slab slots no block holds
	cachedBytes atomic.Int64
	dirtyBytes  atomic.Int64
	cleanCond   *sync.Cond // signalled as dirtyBytes drops
	flushErr    error      // first background flush error, surfaced by Sync/Close

	hits, misses, flushes, flushedBytes, evictions atomic.Int64

	flushWake chan struct{}
	closed    chan struct{}
	abandoned atomic.Bool
	closeOnce sync.Once
	flusherWG sync.WaitGroup
}

// cacheFile is the per-handle cache state.
type cacheFile struct {
	handle uint64
	// mu is read-held by block operations and flushes on this handle
	// and write-held by Truncate/Remove, which need exclusivity.
	mu sync.RWMutex

	// Guarded by Cache.mu:
	blocks     map[int64]*cacheBlock
	size       int64 // tracked logical size (>= backend size while dirty)
	sizeLoaded bool  // size initialized from the backend
}

// cacheBlock is one BlockSize-aligned span of a stripe file.
//
// Invariant: bytes beyond the file's tracked size are zero in every
// loaded block, so reads past EOF come back as holes without consulting
// the size. An unloaded block's buffer may hold anything — a recycled
// block's bytes, a failed fill's — and is never read.
type cacheBlock struct {
	file *cacheFile
	idx  int64

	// bmu is held across fill/flush backend I/O and data copies, and
	// guards the fields below it.
	bmu sync.Mutex
	// data (len BlockSize) is a slab slot from the free list when the
	// block is created, else a spill buffer its first locker allocates;
	// it is nil again once the block is gone and the buffer recycled.
	data   []byte
	spill  bool // data is a spill buffer, not a slab slot
	loaded bool // data is valid
	dirty  bool // data ahead of the backend

	// Guarded by Cache.mu:
	elem     *list.Element
	refs     int  // active users; nonzero pins against eviction
	evicting bool // an evictor has claimed this block
	gone     bool // removed from the block map (evicted/truncated/removed)
}

// Cached wraps inner in a write-back block cache. Close the returned
// Cache (not inner directly) to flush and release it.
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
	bs, slots := int(c.opt.BlockSize), int(c.opt.MaxBytes/c.opt.BlockSize)
	slab, mapped := newSlab(slots * bs)
	if mapped {
		runtime.AddCleanup(c, releaseSlab, slab)
	}
	c.slab = slab
	c.free = make([][]byte, slots)
	for i := range c.free { // the lowest slot is taken first
		at := (slots - 1 - i) * bs
		c.free[i] = slab[at : at+bs : at+bs]
	}
	c.cleanCond = sync.NewCond(&c.mu)
	c.flusherWG.Add(1)
	go c.flusher()
	return c
}

// slabReleased, when set, sees each mapped slab as it is unmapped.
// Tests set it.
var slabReleased atomic.Pointer[func(slab []byte)]

// releaseSlab unmaps a Cache's slab. It runs as the Cache's cleanup,
// once nothing can reach the Cache — and so no block or walk can reach
// the slab: every path that touches block data uses the Cache after it
// (to unpin, count or unlock), and a pooled walk holds no buffers.
func releaseSlab(slab []byte) {
	unmapSlab(slab)
	if hook := slabReleased.Load(); hook != nil {
		(*hook)(slab)
	}
}

// file returns (creating if needed) the per-handle state.
func (c *Cache) file(handle uint64) *cacheFile {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[handle]
	if !ok {
		f = &cacheFile{handle: handle, blocks: make(map[int64]*cacheBlock)}
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

// piece is one non-empty buffer of a batch at its file offset.
type piece struct {
	off int64
	buf []byte
}

func byOffset(a, b piece) int { return cmp.Compare(a.off, b.off) }

func byIndex(a, b *cacheBlock) int { return cmp.Compare(a.idx, b.idx) }

// batchWalk is the working set of one pass over the blocks: a batch's
// pieces, the blocks they touch and a backend batch. Walks are pooled,
// so a request allocates only the blocks it creates.
type batchWalk struct {
	pieces []piece
	idxs   []int64       // every block index the pieces touch, ascending
	whole  []bool        // idxs[i] lies inside one merged run of pieces
	blocks []*cacheBlock // the pinned blocks of idxs (or a flush batch)
	fill   []*cacheBlock // the blocks one backend batch moves, ascending
	spans  []Span        // that backend batch (blockSpans)
	bufs   [][]byte
}

var walkPool = sync.Pool{New: func() any { return new(batchWalk) }}

func newWalk() *batchWalk { return walkPool.Get().(*batchWalk) }

// done drops the walk's references — user buffers, blocks, block
// buffers — and returns it to the pool.
func (w *batchWalk) done() {
	clear(w.pieces)
	clear(w.blocks)
	clear(w.fill)
	clear(w.spans)
	clear(w.bufs)
	w.pieces, w.idxs, w.whole = w.pieces[:0], w.idxs[:0], w.whole[:0]
	w.blocks, w.fill, w.spans, w.bufs = w.blocks[:0], w.fill[:0], w.spans[:0], w.bufs[:0]
	walkPool.Put(w)
}

// walkOf flattens a batch's spans into a walk's pieces, dropping empty
// buffers.
func walkOf(spans []Span) *batchWalk {
	w := newWalk()
	for _, s := range spans {
		off := s.Off
		for _, buf := range s.Bufs {
			if len(buf) > 0 {
				w.pieces = append(w.pieces, piece{off, buf})
			}
			off += int64(len(buf))
		}
	}
	return w
}

// cover appends the blocks one merged run [lo, hi) of pieces touches,
// each marked with whether the run covers it whole. Runs arrive in
// offset order, so a block two runs share — one holding the gap between
// them, never whole — is recorded once.
func (w *batchWalk) cover(lo, hi, bs int64) {
	for idx := lo / bs; idx <= (hi-1)/bs; idx++ {
		if n := len(w.idxs); n > 0 && w.idxs[n-1] == idx {
			continue
		}
		w.idxs = append(w.idxs, idx)
		w.whole = append(w.whole, idx*bs >= lo && (idx+1)*bs <= hi)
	}
}

// pinLocked returns block idx of f with a reference taken, creating it
// (unloaded) if absent. A new block takes a slab slot from the free
// list; when every slot is held, its first locker allocates a spill
// buffer (ensureBuf), outside c.mu. Callers hold c.mu.
func (c *Cache) pinLocked(f *cacheFile, idx int64) *cacheBlock {
	b, ok := f.blocks[idx]
	if !ok {
		b = &cacheBlock{file: f, idx: idx}
		if n := len(c.free); n > 0 {
			b.data = c.free[n-1]
			c.free[n-1] = nil
			c.free = c.free[:n-1]
		}
		f.blocks[idx] = b
		b.elem = c.lru.PushFront(b)
		c.cachedBytes.Add(c.opt.BlockSize)
	} else {
		c.lru.MoveToFront(b.elem)
	}
	b.refs++
	return b
}

// ensureBuf gives a block created while every slot was held a spill
// buffer. Callers hold b.bmu.
func (c *Cache) ensureBuf(b *cacheBlock) {
	if b.data == nil {
		b.data = make([]byte, c.opt.BlockSize)
		b.spill = true
	}
}

// recycleLocked returns a gone block's slot to the free list; a spill
// buffer is dropped. The block is left unloaded with no buffer, so a
// use after recycling panics instead of serving another block's bytes.
// Callers hold c.mu and either b.bmu or f.mu.W.
func (c *Cache) recycleLocked(b *cacheBlock) {
	if b.data != nil && !b.spill {
		c.free = append(c.free, b.data)
	}
	b.data, b.spill, b.loaded = nil, false, false
}

// blockSpans lays ascending blocks out as w.spans: a span per run of
// consecutive indexes, a buffer per block holding its first n(b) bytes.
// It returns the batch's byte count.
func (c *Cache) blockSpans(w *batchWalk, blocks []*cacheBlock, n func(*cacheBlock) int64) int64 {
	if cap(w.bufs) < len(blocks) {
		w.bufs = make([][]byte, 0, len(blocks)) // no append below may move it
	}
	w.spans, w.bufs = w.spans[:0], w.bufs[:0]
	var total int64
	start := 0
	for i, b := range blocks {
		buf := b.data[:n(b)]
		w.bufs = append(w.bufs, buf)
		total += int64(len(buf))
		if i+1 == len(blocks) || blocks[i+1].idx != b.idx+1 {
			w.spans = append(w.spans, Span{Off: blocks[start].idx * c.opt.BlockSize, Bufs: w.bufs[start : i+1 : i+1]})
			start = i + 1
		}
	}
	return total
}

// fillRuns loads ascending unloaded blocks — adjacent ones as one run,
// gaps between runs allowed — with ONE inner ReadBatch. It is the
// cache's only fill path: read misses and the pre-read of a partly
// written block both come through here. Callers hold f.mu.R and
// the bmu of every block, taken in ascending index order (the deadlock
// rule all multi-block paths share). On success every block is marked
// loaded; on error none is: the blocks stay unloaded, whatever the
// failed read left in their buffers, and the caller fails.
func (c *Cache) fillRuns(handle uint64, w *batchWalk, blocks []*cacheBlock) error {
	bs := c.opt.BlockSize
	c.blockSpans(w, blocks, func(*cacheBlock) int64 { return bs })
	if _, err := c.inner.ReadBatch(handle, w.spans); err != nil {
		return err
	}
	for _, b := range blocks {
		b.loaded = true
	}
	return nil
}

// walk moves one batch through the cache in a single pass — the one
// data path of ReadBatch/WriteBatch, and so of ReadAt/WriteAt:
//
//  1. the pieces, sorted by offset, name the blocks they touch;
//  2. one c.mu round pins every block, and their locks are taken in
//     ascending index order;
//  3. every unloaded block is settled: past EOF it is known zeros, a
//     write that covers it whole needs nothing, and every other one —
//     a read miss, or a write's pre-read of a block covered in part —
//     joins ONE fillRuns;
//  4. every piece is copied;
//  5. one more c.mu round marks a write's blocks dirty and publishes
//     its size (before any block lock drops: write-back clips to the
//     size), and unpins.
//
// A failed fill fails the batch before any piece is copied. Hits and
// misses count one per block each piece touches, the first touch of a
// filled block being its miss; a block a write covers whole without a
// fill counts nothing for the touch that loads it.
func (c *Cache) walk(f *cacheFile, w *batchWalk, write bool) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := c.ensureSize(f); err != nil {
		return err
	}
	bs := c.opt.BlockSize
	if !slices.IsSortedFunc(w.pieces, byOffset) {
		slices.SortFunc(w.pieces, byOffset)
	}
	var touches int64
	lo, hi := w.pieces[0].off, w.pieces[0].off // the current merged run
	for _, p := range w.pieces {
		end := p.off + int64(len(p.buf))
		touches += (end-1)/bs - p.off/bs + 1
		if p.off > hi {
			w.cover(lo, hi, bs)
			lo = p.off
		}
		hi = max(hi, end)
	}
	w.cover(lo, hi, bs)

	c.mu.Lock()
	size := f.size
	for _, idx := range w.idxs {
		w.blocks = append(w.blocks, c.pinLocked(f, idx))
	}
	c.mu.Unlock()
	for _, b := range w.blocks {
		b.bmu.Lock()
		c.ensureBuf(b)
	}

	var overwritten int64
	for i, b := range w.blocks {
		switch {
		case b.loaded:
		case write && w.whole[i]:
			overwritten++ // loaded once the copy below lands
		case b.idx*bs >= size:
			// Entirely past EOF: the backend holds only zeros here.
			// The one place the cache relies on zeros it did not read,
			// so the (possibly recycled) buffer is zeroed.
			clear(b.data)
			b.loaded = true
		default:
			w.fill = append(w.fill, b)
		}
	}
	if len(w.fill) > 0 {
		if err := c.fillRuns(f.handle, w, w.fill); err != nil {
			c.mu.Lock()
			for _, b := range w.blocks {
				b.refs--
			}
			c.mu.Unlock()
			for _, b := range w.blocks {
				b.bmu.Unlock()
			}
			return err
		}
		c.misses.Add(int64(len(w.fill)))
	}
	c.hits.Add(touches - int64(len(w.fill)) - overwritten)

	k := 0 // w.blocks[k] holds the current piece's first byte
	for _, p := range w.pieces {
		for w.blocks[k].idx < p.off/bs {
			k++
		}
		for pos, end, j := p.off, p.off+int64(len(p.buf)), k; pos < end; j++ {
			b := w.blocks[j]
			base := b.idx * bs
			n := min(end, base+bs) - pos
			if write {
				copy(b.data[pos-base:pos-base+n], p.buf[pos-p.off:])
			} else {
				copy(p.buf[pos-p.off:pos-p.off+n], b.data[pos-base:])
			}
			pos += n
		}
	}

	c.mu.Lock()
	if write {
		f.size = max(f.size, hi)
		for _, b := range w.blocks {
			b.loaded = true
			if !b.dirty {
				b.dirty = true
				c.dirtyBytes.Add(bs)
				c.dirtySet[b] = struct{}{}
			}
		}
	}
	for _, b := range w.blocks {
		b.refs--
	}
	c.mu.Unlock()
	for _, b := range w.blocks {
		b.bmu.Unlock()
	}
	if write && c.dirtyBytes.Load() > c.opt.DirtyHighWater {
		c.wakeFlusher()
	}
	return nil
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
// block indexes merge into runs, and ALL the file's gapped runs go down
// as ONE inner WriteBatch (DESIGN.md §11), each block clipped to the
// tracked size so write-back never extends a file past its logical
// end. It is the cache's only flush path — the flusher, Sync and
// eviction (a batch of one victim) all come through here. Callers hold
// f.mu (either mode); block locks are taken here, in ascending index
// order. Blocks that meanwhile went clean or gone are skipped (a gone
// block's fate was decided by Truncate/Remove or eviction). The batch
// is all-or-nothing: on error every block in it stays dirty for a later
// retry — the §7 crash contract is per run, and a batch is a set of
// runs that land or fail together.
func (c *Cache) flushFileRuns(f *cacheFile, batch []*cacheBlock) error {
	slices.SortFunc(batch, byIndex)
	for _, b := range batch {
		b.bmu.Lock()
	}
	defer func() {
		for _, b := range batch {
			b.bmu.Unlock()
		}
	}()
	w := newWalk()
	defer w.done()
	c.mu.Lock()
	size := f.size
	for _, b := range batch {
		if !b.gone && b.dirty {
			w.blocks = append(w.blocks, b)
		}
	}
	c.mu.Unlock()
	// A block wholly past the tracked size is dropped without a write.
	// The size clips at one point, so within a run every block but the
	// last is written whole and each span stays file-contiguous.
	bs := c.opt.BlockSize
	clipOf := func(b *cacheBlock) int64 { return min(max(size-b.idx*bs, 0), bs) }
	for _, b := range w.blocks {
		if clipOf(b) > 0 {
			w.fill = append(w.fill, b)
		}
	}
	var err error
	if len(w.fill) > 0 {
		total := c.blockSpans(w, w.fill, clipOf)
		if _, err = c.inner.WriteBatch(f.handle, w.spans); err == nil {
			c.flushedBytes.Add(total)
			c.flushes.Add(int64(len(w.fill)))
		}
	}
	cleaned := 0
	c.mu.Lock()
	for _, b := range w.blocks {
		if err != nil && clipOf(b) > 0 {
			continue
		}
		b.dirty = false
		c.dirtyBytes.Add(-bs)
		delete(c.dirtySet, b)
		cleaned++
	}
	if cleaned > 0 {
		c.cleanCond.Broadcast()
	}
	c.mu.Unlock()
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
		_, dirty := c.dirtySet[victim]
		c.mu.Unlock()

		// A clean victim needs no write-back, only its block lock.
		f := victim.file
		var err error
		if dirty {
			f.mu.RLock()
			err = c.flushFileRuns(f, []*cacheBlock{victim})
			f.mu.RUnlock()
		}

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
			c.recycleLocked(victim)
		}
		victim.evicting = false
		c.mu.Unlock()
		victim.bmu.Unlock()
	}
}

// ReadAt implements Store as a one-span ReadBatch.
func (c *Cache) ReadAt(handle uint64, p []byte, off int64) (int, error) {
	return c.ReadBatch(handle, []Span{{Off: off, Bufs: [][]byte{p}}})
}

// WriteAt implements Store as a one-span WriteBatch.
func (c *Cache) WriteAt(handle uint64, p []byte, off int64) (int, error) {
	return c.WriteBatch(handle, []Span{{Off: off, Bufs: [][]byte{p}}})
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

// ReadBatch implements Store over the cache: the whole batch is one
// walk, so its hits stay in memory and its misses fill, a whole block
// at a time, with one backend batch; callers that batch gapped runs
// keep one code path whether or not a cache interposes.
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
	return c.run(handle, walkOf(spans), total, false)
}

// WriteBatch implements Store over the cache; the data lands in cached
// blocks in one walk (write-back), partly covered cold blocks filled
// from the backend first, and is flushed later, batched back out
// through flushFileRuns. A write the backend would refuse at flush time
// (c.limit) is refused here rather than acknowledged.
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
	return c.run(handle, walkOf(spans), total, true)
}

// run walks a checked, non-empty batch of n bytes on handle, then
// enforces the memory budget; the walk goes back to its pool. While a
// background flush error is pending the cache is degraded and writes
// fail fast — accepting more dirty data that provably cannot reach the
// backend would grow memory without bound and widen the crash loss
// window; a Sync that successfully re-flushes the stuck blocks clears
// the condition.
func (c *Cache) run(handle uint64, w *batchWalk, n int, write bool) (int, error) {
	defer w.done()
	if write {
		c.waitDirtyRoom()
		c.mu.Lock()
		ferr := c.flushErr
		c.mu.Unlock()
		if ferr != nil {
			return 0, fmt.Errorf("store: cache write-back degraded: %w", ferr)
		}
	}
	if err := c.walk(c.file(handle), w, write); err != nil {
		return 0, err
	}
	c.evictIfNeeded()
	return n, nil
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
		// An unloaded straddler is filled whole from the truncated
		// backend before any use.
		straddler.bmu.Lock()
		if straddler.loaded {
			clear(straddler.data[size-straddler.idx*bs:])
		}
		straddler.bmu.Unlock()
		runtime.KeepAlive(c) // the straddler's buffer may be a slot of c's slab
	}
	return nil
}

// dropBlockLocked removes a block from the cache without flushing and
// recycles its buffer. Callers hold c.mu and f.mu.W (so no block
// operation or flush is in flight on f; an evictor may hold b.bmu, but
// it only reads the block's flags, and finds it gone).
func (c *Cache) dropBlockLocked(f *cacheFile, b *cacheBlock) {
	if b.gone {
		return
	}
	delete(f.blocks, b.idx)
	c.lru.Remove(b.elem)
	b.gone = true
	c.cachedBytes.Add(-c.opt.BlockSize)
	c.recycleLocked(b)
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

// stop closes c.closed and waits for the flusher to return. The
// broadcast comes after the close, under c.mu, so a writer stalled in
// waitDirtyRoom either sees c.closed on its next check or is woken.
func (c *Cache) stop() {
	close(c.closed)
	c.mu.Lock()
	c.cleanCond.Broadcast()
	c.mu.Unlock()
	c.flusherWG.Wait()
}

// Close flushes all dirty blocks, stops the flusher and closes the
// backend.
func (c *Cache) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.stop()
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
	// runs after fails with ErrAbandoned (see Sync's final check).
	c.abandoned.Store(true)
	c.closeOnce.Do(c.stop)
	c.mu.Lock()
	c.files = make(map[uint64]*cacheFile)
	c.dirtySet = make(map[*cacheBlock]struct{})
	c.free = nil
	// Remove each element rather than Init the list: a straggler that
	// still holds a dropped block then finds its element detached, and
	// its MoveToFront or Remove leaves the new list alone.
	for e := c.lru.Front(); e != nil; e = c.lru.Front() {
		c.lru.Remove(e)
	}
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
		Flushes:      c.flushes.Load(),
		FlushedBytes: c.flushedBytes.Load(),
		Evictions:    c.evictions.Load(),
		CachedBytes:  cached,
		DirtyBytes:   dirty,
	}
}
