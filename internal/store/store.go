// Package store implements the local storage an I/O daemon keeps its
// stripe files in. PVFS I/O daemons store each file's stripe data in a
// regular file on the node's local file system; this package provides
// that abstraction with two backends: an in-memory store for tests and
// simulation harnesses, and a directory-backed store using one sparse
// file per handle, the shape of a real iod data directory.
package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"pvfs/internal/ioseg"
	"pvfs/internal/sysvec"
)

// Store is the storage interface an I/O daemon requires. Reads past the
// current physical size yield zero bytes (sparse semantics), matching
// reads from file holes on a POSIX file system.
type Store interface {
	// ReadAt fills p from the stripe file at off. Bytes beyond the
	// stored size read as zeros; n is always len(p) on success.
	ReadAt(handle uint64, p []byte, off int64) (int, error)
	// WriteAt stores p at off, extending the file as needed.
	WriteAt(handle uint64, p []byte, off int64) (int, error)
	// ReadBatch and WriteBatch move a whole window of disjoint spans,
	// gaps included, in one call (see BatchIO).
	BatchIO
	// Size reports the stored physical size (0 for unknown handles).
	Size(handle uint64) (int64, error)
	// Truncate sets the physical size, zero-filling on extension.
	Truncate(handle uint64, size int64) error
	// Remove deletes the stripe file for handle.
	Remove(handle uint64) error
	// Handles lists the stored handles in ascending order.
	Handles() ([]uint64, error)
	// Close releases backend resources.
	Close() error
}

// Span is one file-contiguous extent of a batch: scattered memory
// buffers applied in order starting at Off.
type Span struct {
	Off  int64
	Bufs [][]byte
}

// Len returns the span's total byte count.
func (s Span) Len() int { return spanLen(s.Bufs) }

// BatchIO is the batch half of Store: a whole window of DISJOINT file
// spans — gaps included — taken as one call (DESIGN.md §11). Every
// backend implements it; a one-span batch is a scatter/gather of one
// adjacent run.
//
// Spans must be non-overlapping; order is not significant and callers
// must not rely on the order in which a backend applies them. Reads
// zero-fill past EOF per span (sparse semantics). On error some spans
// may have fully or partially landed and others not; callers needing
// all-or-nothing tracking (the cache's flush contract) must treat the
// whole batch as failed.
//
// Dir takes a batch as one preadv/pwritev per span from the calling
// goroutine; Mem serves it under one lock round; Cache routes it
// through its blocks.
type BatchIO interface {
	ReadBatch(handle uint64, spans []Span) (int, error)
	WriteBatch(handle uint64, spans []Span) (int, error)
}

// VectorIO is the packed-vector shape of ApplyPacked as a method. Dir
// and Cache keep it as one-line adapters only because the bench/
// harness's traced store wrappers compile against it (as it does
// against RingAvailable); nothing in this module asserts it.
type VectorIO interface {
	ReadAtv(handle uint64, segs ioseg.List, p []byte) (int, error)
	WriteAtv(handle uint64, segs ioseg.List, p []byte) (int, error)
}

// SpanIO is the one-span batch as a method. Dir keeps it only for the
// bench/ harness, like VectorIO.
type SpanIO interface {
	ReadSpanv(handle uint64, off int64, bufs [][]byte) (int, error)
	WriteSpanv(handle uint64, off int64, bufs [][]byte) (int, error)
}

// ApplyPacked runs one packed vector against st: the one storage path
// of list and datatype windows (DESIGN.md §11). segs describe file
// extents and p is the packed data stream in segment order — the i-th
// segment's bytes start where the lengths of segments 0..i-1 end, as
// the list I/O wire format packs trailing data — so len(p) must equal
// the list's total length. write selects the direction.
//
// The input picks the path. A sorted, overlap-free list goes down as
// one ReadBatch/WriteBatch of its coalesced runs (ioseg.CoalesceRuns),
// a single run included. An unsorted or overlapping list is applied one
// scalar ReadAt/WriteAt per non-empty segment, in list order, so a
// later overlapping write wins. Either way the result is exactly that
// of per-segment application.
func ApplyPacked(st Store, handle uint64, segs ioseg.List, p []byte, write bool) (int, error) {
	if err := checkVector(segs, p); err != nil {
		return 0, err
	}
	runs, pos, ok := segs.CoalesceRuns()
	if !ok {
		var at int64
		for _, s := range segs {
			if s.Length == 0 {
				continue
			}
			var err error
			if write {
				_, err = st.WriteAt(handle, p[at:at+s.Length], s.Offset)
			} else {
				_, err = st.ReadAt(handle, p[at:at+s.Length], s.Offset)
			}
			if err != nil {
				return int(at), err
			}
			at += s.Length
		}
		return len(p), nil
	}
	if len(runs) == 0 {
		return 0, nil
	}
	spans := make([]Span, len(runs))
	bufs := make([][]byte, len(runs))
	for i, r := range runs {
		bufs[i] = p[pos[i] : pos[i]+r.Length]
		spans[i] = Span{Off: r.Offset, Bufs: bufs[i : i+1 : i+1]}
	}
	if write {
		return st.WriteBatch(handle, spans)
	}
	return st.ReadBatch(handle, spans)
}

// IOStats counts a store's backend I/O submissions and bytes. For Dir
// a syscall is a real data syscall (pread/pwrite/preadv/pwritev); for
// Mem it is one locked copy round (the cost analogue of a syscall).
// Layered stores (Cache) report the counters of the backend below them,
// so they always describe what reached the syscall layer — the paper's
// "fewer, larger accesses" metric (the harness's store.syscalls_per_req
// and store.submissions_per_req).
type IOStats struct {
	SyscallsRead  int64 // read submissions (pread + preadv)
	SyscallsWrite int64 // write submissions (pwrite + pwritev)
	BytesRead     int64 // bytes moved by read submissions
	BytesWritten  int64 // bytes moved by write submissions
	Submissions   int64 // ReadBatch/WriteBatch calls that moved data, however they went down
	BytesCopied   int64 // bytes that crossed a user-space buffer copy
}

// Sub returns the delta s - o, for before/after windows.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{
		SyscallsRead:  s.SyscallsRead - o.SyscallsRead,
		SyscallsWrite: s.SyscallsWrite - o.SyscallsWrite,
		BytesRead:     s.BytesRead - o.BytesRead,
		BytesWritten:  s.BytesWritten - o.BytesWritten,
		Submissions:   s.Submissions - o.Submissions,
		BytesCopied:   s.BytesCopied - o.BytesCopied,
	}
}

// IOStatsProvider is implemented by stores that report submission
// counters; the I/O daemon merges them into wire.ServerStats.
type IOStatsProvider interface {
	IOStats() IOStats
}

// ioCounters is the embedded implementation of IOStatsProvider shared
// by the backends.
type ioCounters struct {
	sysRead, sysWrite, bytesRead, bytesWritten atomic.Int64
	submissions, bytesCopied                   atomic.Int64
}

func (c *ioCounters) IOStats() IOStats {
	return IOStats{
		SyscallsRead:  c.sysRead.Load(),
		SyscallsWrite: c.sysWrite.Load(),
		BytesRead:     c.bytesRead.Load(),
		BytesWritten:  c.bytesWritten.Load(),
		Submissions:   c.submissions.Load(),
		BytesCopied:   c.bytesCopied.Load(),
	}
}

// countRead/countWrite account a submission that moved bytes through a
// user-space buffer — every pread/pwrite/preadv/pwritev lands in (or
// leaves from) a caller buffer, so the bytes count as copied. The
// zero-copy sendfile path (stream_linux.go) uses countReadZC instead:
// same syscall and byte accounting, no copy.
func (c *ioCounters) countRead(nsys, bytes int64) {
	c.sysRead.Add(nsys)
	c.bytesRead.Add(bytes)
	c.bytesCopied.Add(bytes)
}

func (c *ioCounters) countWrite(nsys, bytes int64) {
	c.sysWrite.Add(nsys)
	c.bytesWritten.Add(bytes)
	c.bytesCopied.Add(bytes)
}

// countReadZC accounts a zero-copy read submission: the bytes moved
// kernel-side (file → socket) without visiting a user-space buffer.
func (c *ioCounters) countReadZC(nsys, bytes int64) {
	c.sysRead.Add(nsys)
	c.bytesRead.Add(bytes)
}

// countSub accounts BatchIO submissions: one per batch, the same on
// every backend and host.
func (c *ioCounters) countSub(n int64) { c.submissions.Add(n) }

// checkVector validates a packed vector against its buffer: every
// segment valid, every extent within MaxFileSize, and the total
// exactly len(p). The store a vector lands on applies its own, possibly
// tighter, limit.
func checkVector(segs ioseg.List, p []byte) error {
	var total int64
	for i, s := range segs {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("store: segment %d: %w", i, err)
		}
		if s.End() > MaxFileSize {
			return fmt.Errorf("store: segment %d [%d,+%d) exceeds file limit", i, s.Offset, s.Length)
		}
		if total > math.MaxInt64-s.Length {
			return fmt.Errorf("store: vector total overflows int64")
		}
		total += s.Length
	}
	if total != int64(len(p)) {
		return fmt.Errorf("store: vector total %d != buffer %d", total, len(p))
	}
	return nil
}

// checkSpans validates a batch request: every span's extent within
// [0, limit) with overflow-free arithmetic, and spans pairwise
// disjoint (BatchIO's contract — overlap would make the result depend
// on the order a backend applies spans in, and the cache's flush
// contract treats a batch as a set of runs that land or fail together
// in any order). It
// returns the batch's total byte count. Spans arrive sorted from every
// internal caller (cache runs, coalesced packed runs), so disjointness
// is a cheap adjacent check after a sortedness scan.
func checkSpans(spans []Span, limit int64) (int, error) {
	var total int64
	prevEnd := int64(-1)
	sorted := true
	for i := range spans {
		n := spans[i].Len()
		off := spans[i].Off
		if err := checkExtent(off, n); err != nil {
			return 0, fmt.Errorf("store: span %d: %w", i, err)
		}
		if off+int64(n) > limit {
			return 0, fmt.Errorf("store: span %d [%d,+%d) exceeds file limit", i, off, n)
		}
		if off < prevEnd {
			sorted = false
		}
		prevEnd = off + int64(n)
		total += int64(n)
		if total > math.MaxInt64/2 {
			return 0, fmt.Errorf("store: batch total overflows")
		}
	}
	if !sorted {
		// Rare path: verify disjointness on a sorted copy.
		byOff := make([]Span, len(spans))
		copy(byOff, spans)
		sort.Slice(byOff, func(i, j int) bool { return byOff[i].Off < byOff[j].Off })
		for i := 1; i < len(byOff); i++ {
			if byOff[i-1].Off+int64(byOff[i-1].Len()) > byOff[i].Off {
				return 0, fmt.Errorf("store: batch spans overlap")
			}
		}
	}
	return int(total), nil
}

// Syncer is implemented by stores that buffer writes (Cache): Sync
// hands a handle's dirty data to the backend store, SyncAll every
// handle's. For Dir that is the page cache: synced data survives a
// daemon crash, not a host crash, since no store calls fdatasync.
// Backends that write through (Mem, Dir) need not implement it;
// callers feature-test with a type assertion.
type Syncer interface {
	Sync(handle uint64) error
	SyncAll() error
}

// MaxFileSize bounds a single stripe file's physical size. It exists
// so untrusted request geometry cannot drive a backend into absurd
// allocations or kernel-rejected syscalls: an offset near MaxInt64
// must fail cleanly, not overflow extent arithmetic (off+len wrapping
// negative skips growth checks and panics the daemon) and not ask the
// in-memory backend for an exabyte of zeros. 1 PiB is far above any
// real stripe file while keeping every off+len sum overflow-free.
const MaxFileSize = 1 << 50

// checkExtent validates a write extent [off, off+n) against negative
// offsets, int64 overflow and the MaxFileSize bound.
func checkExtent(off int64, n int) error {
	switch {
	case off < 0:
		return fmt.Errorf("store: negative offset %d", off)
	case off > math.MaxInt64-int64(n):
		return fmt.Errorf("store: extent [%d,+%d) overflows int64", off, n)
	case off+int64(n) > MaxFileSize:
		return fmt.Errorf("store: extent [%d,+%d) exceeds max file size", off, n)
	}
	return nil
}

// --- memory backend ---

// Sizer is implemented by stores whose per-file size bound is tighter
// than MaxFileSize; layered stores (Cache) query it so they never
// accept a write the backend must later refuse.
type Sizer interface {
	MaxSize() int64
}

// MemMaxFileSize bounds a single in-memory stripe file. Unlike Dir
// (sparse files, cheap holes), Mem allocates every byte up to the
// write's end, so a hostile offset must be refused long before the
// runtime's allocator is asked for it.
const MemMaxFileSize = 8 << 30

// Mem is an in-memory Store.
type Mem struct {
	ioCounters
	mu    sync.RWMutex
	files map[uint64][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{files: make(map[uint64][]byte)}
}

// ReadAt implements Store.
func (m *Mem) ReadAt(handle uint64, p []byte, off int64) (int, error) {
	if err := checkExtent(off, len(p)); err != nil {
		return 0, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	f := m.files[handle]
	for i := range p {
		p[i] = 0
	}
	if off < int64(len(f)) {
		copy(p, f[off:])
	}
	m.countRead(1, int64(len(p)))
	return len(p), nil
}

// WriteAt implements Store.
func (m *Mem) WriteAt(handle uint64, p []byte, off int64) (int, error) {
	if err := checkExtent(off, len(p)); err != nil {
		return 0, err
	}
	if off+int64(len(p)) > MemMaxFileSize {
		return 0, fmt.Errorf("store: extent [%d,+%d) exceeds in-memory file limit", off, len(p))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[handle]
	if len(p) > 0 {
		f = memGrow(f, off+int64(len(p)))
		copy(f[off:], p)
	}
	m.files[handle] = f
	m.countWrite(1, int64(len(p)))
	return len(p), nil
}

// ReadBatch implements Store: the whole gapped batch is served under
// one read lock — one submission regardless of span count.
func (m *Mem) ReadBatch(handle uint64, spans []Span) (int, error) {
	total, err := checkSpans(spans, MaxFileSize)
	if err != nil {
		return 0, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	f := m.files[handle]
	for _, sp := range spans {
		pos := sp.Off
		for _, b := range sp.Bufs {
			for i := range b {
				b[i] = 0
			}
			if pos < int64(len(f)) {
				copy(b, f[pos:])
			}
			pos += int64(len(b))
		}
	}
	m.countRead(1, int64(total))
	m.countSub(1)
	return total, nil
}

// WriteBatch implements Store: the whole gapped batch lands under one
// write lock.
func (m *Mem) WriteBatch(handle uint64, spans []Span) (int, error) {
	total, err := checkSpans(spans, MemMaxFileSize)
	if err != nil || total == 0 {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var need int64
	for _, sp := range spans {
		if n := sp.Len(); n > 0 && sp.Off+int64(n) > need {
			need = sp.Off + int64(n)
		}
	}
	f := memGrow(m.files[handle], need)
	for _, sp := range spans {
		pos := sp.Off
		for _, b := range sp.Bufs {
			if len(b) > 0 {
				copy(f[pos:], b)
			}
			pos += int64(len(b))
		}
	}
	m.files[handle] = f
	m.countWrite(1, int64(total))
	m.countSub(1)
	return total, nil
}

// memGrow returns f zero-extended to need bytes when it is shorter.
// Writers pass the end of their non-empty extents only: a zero-byte
// write leaves the size alone, as a zero-byte pwrite does on Dir.
func memGrow(f []byte, need int64) []byte {
	if need <= int64(len(f)) {
		return f
	}
	nf := make([]byte, need)
	copy(nf, f)
	return nf
}

// spanLen sums buffer lengths, the byte count of a span request.
func spanLen(bufs [][]byte) int {
	var n int
	for _, b := range bufs {
		n += len(b)
	}
	return n
}

// Size implements Store.
func (m *Mem) Size(handle uint64) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.files[handle])), nil
}

// Truncate implements Store.
func (m *Mem) Truncate(handle uint64, size int64) error {
	if size < 0 {
		return fmt.Errorf("store: negative size %d", size)
	}
	if size > MemMaxFileSize {
		return fmt.Errorf("store: size %d exceeds in-memory file limit", size)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[handle]
	if size <= int64(len(f)) {
		m.files[handle] = f[:size]
		return nil
	}
	nf := make([]byte, size)
	copy(nf, f)
	m.files[handle] = nf
	return nil
}

// Remove implements Store.
func (m *Mem) Remove(handle uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, handle)
	return nil
}

// Handles implements Store.
func (m *Mem) Handles() ([]uint64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	hs := make([]uint64, 0, len(m.files))
	for h := range m.files {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs, nil
}

// Close implements Store.
func (m *Mem) Close() error { return nil }

// MaxSize implements Sizer.
func (m *Mem) MaxSize() int64 { return MemMaxFileSize }

// --- directory backend ---

// Dir is a Store backed by one file per handle inside a directory,
// like a PVFS iod data directory (files named by handle in hex).
//
// Concurrency: the store-level mutex guards only the open-file table
// and is never held across a data syscall. Reads and writes go through
// pread/pwrite on the per-handle *os.File, which the kernel serializes
// per call, so requests on different handles — and positioned requests
// on the same handle — proceed in parallel. (The original
// implementation held one store-wide mutex across every ReadAt/WriteAt
// syscall, serializing the whole daemon and defeating the tagged
// request pipelining of the transport.)
type Dir struct {
	ioCounters
	mu   sync.Mutex // guards open; never held across data syscalls
	root string
	open map[uint64]*os.File
}

// RingAvailable always reports false: the store no longer submits
// through io_uring (DESIGN.md §11). It stays only because the bench/
// harness records it in its machine fingerprint.
func RingAvailable() bool { return false }

// NewDir opens (creating if needed) a directory-backed store.
func NewDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Dir{root: root, open: make(map[uint64]*os.File)}, nil
}

func (d *Dir) path(handle uint64) string {
	return filepath.Join(d.root, fmt.Sprintf("%016x.stripe", handle))
}

// file returns the open stripe file for handle, opening (and caching)
// it on first use. Only writes and Truncate create it: a read of a
// handle with no stripe file gets an fs.ErrNotExist error, reads zeros
// and leaves Handles as it was, as on Mem. The map lock is held only
// for the lookup/open, not for any data access on the returned file.
func (d *Dir) file(handle uint64, create bool) (*os.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.open[handle]; ok {
		return f, nil
	}
	flag := os.O_RDWR
	if create {
		flag |= os.O_CREATE
	}
	f, err := os.OpenFile(d.path(handle), flag, 0o644)
	if err != nil {
		return nil, err
	}
	d.open[handle] = f
	return f, nil
}

// ReadAt implements Store.
func (d *Dir) ReadAt(handle uint64, p []byte, off int64) (int, error) {
	if err := checkExtent(off, len(p)); err != nil {
		return 0, err
	}
	f, err := d.file(handle, false)
	if errors.Is(err, fs.ErrNotExist) {
		clear(p)
		return len(p), nil
	}
	if err != nil {
		return 0, err
	}
	d.countRead(1, int64(len(p)))
	n, err := f.ReadAt(p, off)
	if err == io.EOF {
		clear(p[n:]) // sparse semantics: zero-fill the tail
		return len(p), nil
	}
	return n, err
}

// ReadAtv implements VectorIO over ApplyPacked. It is kept only for the
// bench/ harness's traced wrappers; see VectorIO.
func (d *Dir) ReadAtv(handle uint64, segs ioseg.List, p []byte) (int, error) {
	return ApplyPacked(d, handle, segs, p, false)
}

// WriteAtv implements VectorIO over ApplyPacked, kept for bench/ only.
func (d *Dir) WriteAtv(handle uint64, segs ioseg.List, p []byte) (int, error) {
	return ApplyPacked(d, handle, segs, p, true)
}

// ReadSpanv implements SpanIO as a one-span batch, kept for bench/ only.
func (d *Dir) ReadSpanv(handle uint64, off int64, bufs [][]byte) (int, error) {
	return d.ReadBatch(handle, []Span{{Off: off, Bufs: bufs}})
}

// WriteSpanv implements SpanIO as a one-span batch, kept for bench/ only.
func (d *Dir) WriteSpanv(handle uint64, off int64, bufs [][]byte) (int, error) {
	return d.WriteBatch(handle, []Span{{Off: off, Bufs: bufs}})
}

// ReadBatch implements Store: one preadv per span from the calling
// goroutine, the mirror of WriteBatch (sysvec.Preadv, a per-buffer
// loop where preadv is unavailable). Reads past EOF zero-fill; buffers
// fill in order within each span.
func (d *Dir) ReadBatch(handle uint64, spans []Span) (int, error) {
	total, err := checkSpans(spans, MaxFileSize)
	if err != nil {
		return 0, err
	}
	var f *os.File
	if total > 0 {
		if f, err = d.file(handle, false); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return 0, err
		}
	}
	if f == nil { // nothing to read, or no stripe file: all holes
		for _, sp := range spans {
			for _, b := range sp.Bufs {
				clear(b)
			}
		}
		return total, nil
	}
	d.countSub(1)
	var n int
	for _, sp := range spans {
		if sp.Len() == 0 {
			continue
		}
		m, nsys, err := sysvec.Preadv(f, sp.Bufs, sp.Off)
		d.countRead(nsys, int64(m))
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// WriteBatch implements Store: one pwritev per span, from the calling
// goroutine, so batches from different requests run in parallel
// (DESIGN.md §11).
func (d *Dir) WriteBatch(handle uint64, spans []Span) (int, error) {
	total, err := checkSpans(spans, MaxFileSize)
	if err != nil {
		return 0, err
	}
	if total == 0 {
		return 0, nil
	}
	f, err := d.file(handle, true)
	if err != nil {
		return 0, err
	}
	d.countSub(1)
	var n int
	for _, sp := range spans {
		if sp.Len() == 0 {
			continue
		}
		m, nsys, err := sysvec.Pwritev(f, sp.Bufs, sp.Off)
		d.countWrite(nsys, int64(m))
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// WriteAt implements Store.
func (d *Dir) WriteAt(handle uint64, p []byte, off int64) (int, error) {
	if err := checkExtent(off, len(p)); err != nil {
		return 0, err
	}
	f, err := d.file(handle, true)
	if err != nil {
		return 0, err
	}
	d.countWrite(1, int64(len(p)))
	return f.WriteAt(p, off)
}

// Size implements Store.
func (d *Dir) Size(handle uint64) (int64, error) {
	d.mu.Lock()
	f, ok := d.open[handle]
	d.mu.Unlock()
	if ok {
		st, err := f.Stat()
		if err != nil {
			return 0, err
		}
		return st.Size(), nil
	}
	st, err := os.Stat(d.path(handle))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Truncate implements Store.
func (d *Dir) Truncate(handle uint64, size int64) error {
	if size < 0 {
		return fmt.Errorf("store: negative size %d", size)
	}
	if size > MaxFileSize {
		return fmt.Errorf("store: size %d exceeds max file size", size)
	}
	f, err := d.file(handle, true)
	if err != nil {
		return err
	}
	return f.Truncate(size)
}

// Remove implements Store. The map lock is held across the unlink:
// releasing it first would let a concurrent data operation reopen and
// cache the file between the map delete and the unlink, leaving the
// store writing into an orphaned inode.
func (d *Dir) Remove(handle uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.open[handle]; ok {
		f.Close()
		delete(d.open, handle)
	}
	err := os.Remove(d.path(handle))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Handles implements Store.
func (d *Dir) Handles() ([]uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ents, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	var hs []uint64
	for _, e := range ents {
		var h uint64
		if _, err := fmt.Sscanf(e.Name(), "%016x.stripe", &h); err == nil {
			hs = append(hs, h)
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs, nil
}

// Close implements Store.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for h, f := range d.open {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(d.open, h)
	}
	return first
}
