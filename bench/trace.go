package main

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvfs/internal/ioseg"
	"pvfs/internal/store"
	"pvfs/internal/wire"
)

// Spans are recorded at the three seams the program exposes publicly
// (bench loop, client net.Conn, daemon store.Store); see README.md
// "How to read a trace file".

type phase uint8

const (
	phaseOff phase = iota
	phaseWrite
	phaseRead
)

func (p phase) String() string {
	switch p {
	case phaseWrite:
		return "write"
	case phaseRead:
		return "read"
	}
	return "off"
}

type spanKind uint8

const (
	kindOp spanKind = iota
	kindCall
	kindStore
)

var kindNames = [...]string{"op", "call", "store"}

// span is one timed interval. Op is the id of the bench op that caused
// it; store spans are recorded on the daemon side of the socket, where
// the op is unknown from outside the program, so they carry Op 0 and
// are attributed to a phase by time.
type span struct {
	Kind       spanKind
	Phase      phase
	Start, End int64 // ns since the recorder's epoch
	Op         int64
	// ReqBytes/RespBytes are the frame sizes of a call span.
	ReqBytes, RespBytes int64
}

type interval struct{ lo, hi int64 }

// union returns the merged, sorted cover of iv.
func union(iv []interval) []interval {
	if len(iv) == 0 {
		return nil
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := s[:1]
	for _, v := range s[1:] {
		last := &out[len(out)-1]
		if v.lo <= last.hi {
			if v.hi > last.hi {
				last.hi = v.hi
			}
			continue
		}
		out = append(out, v)
	}
	return out
}

func coverLen(merged []interval) int64 {
	var n int64
	for _, v := range merged {
		n += v.hi - v.lo
	}
	return n
}

// overlapLen is the length of a ∩ b for two merged covers.
func overlapLen(a, b []interval) int64 {
	var n int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			n += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return n
}

// selfTime is the parent's duration minus the part of it its children
// cover; overlapping (pipelined) children count once.
func selfTime(parent interval, children []interval) int64 {
	return (parent.hi - parent.lo) - overlapLen([]interval{parent}, union(children))
}

// recorder owns every span buffer of one traced deployment.
type recorder struct {
	epoch time.Time
	phase atomic.Uint32 // current phase; phaseOff drops spans
	nextO atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) cur() phase { return phase(r.phase.Load()) }

// spanBuf is one source's append-only span list; each conn and each
// daemon store has its own, so sources never contend with each other.
type spanBuf struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) newBuf() *spanBuf {
	b := &spanBuf{}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, b := range r.bufs {
		b.mu.Lock()
		out = append(out, b.spans...)
		b.mu.Unlock()
	}
	return out
}

// maxTraceSpans caps the trace file; the in-memory analysis always
// sees every span.
const maxTraceSpans = 50000

func writeTrace(path string, spans []span) error {
	type row struct {
		Name   string `json:"name"`
		Phase  string `json:"phase"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int64  `json:"parent_op"`
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	n := min(len(spans), maxTraceSpans)
	rows := make([]row, n)
	for i, s := range spans[:n] {
		rows[i] = row{kindNames[s.Kind], s.Phase.String(), s.Start, s.End, s.Op}
	}
	b, err := json.Marshal(struct {
		Total   int   `json:"spans_recorded"`
		Written int   `json:"spans_written"`
		Spans   []row `json:"spans"`
	}{len(spans), n, rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// rankTracer is one client rank's view of the recorder: the op it is
// running now (ranks run ops one at a time) and its op spans.
type rankTracer struct {
	rec   *recorder
	curOp atomic.Int64
	ops   *spanBuf
}

func (r *recorder) newRank() *rankTracer {
	return &rankTracer{rec: r, ops: r.newBuf()}
}

// begin opens the root span of one bench op; the returned func closes it.
func (t *rankTracer) begin() func() {
	ph := t.rec.cur()
	if ph == phaseOff {
		return func() {}
	}
	id := t.rec.nextO.Add(1)
	t.curOp.Store(id)
	start := t.rec.now()
	return func() {
		t.ops.add(span{Kind: kindOp, Phase: ph, Start: start, End: t.rec.now(), Op: id})
		t.curOp.Store(0)
	}
}

// frameParser follows the 28-byte wire framing over an arbitrary
// segmentation of the byte stream.
type frameParser struct {
	hdr      [wire.HeaderSize]byte
	have     int
	bodyLeft int64
	size     int64 // bytes of the current frame
	tag      uint32
}

// feed consumes p and calls begin at each frame's first byte and end
// when its last byte has passed.
func (f *frameParser) feed(p []byte, begin func(), end func(tag uint32, size int64)) {
	for len(p) > 0 {
		if f.bodyLeft > 0 {
			n := min(int64(len(p)), f.bodyLeft)
			f.bodyLeft -= n
			p = p[n:]
			if f.bodyLeft == 0 {
				end(f.tag, f.size)
			}
			continue
		}
		if f.have == 0 && begin != nil {
			begin()
		}
		n := copy(f.hdr[f.have:], p)
		f.have += n
		p = p[n:]
		if f.have < wire.HeaderSize {
			return
		}
		f.have = 0
		f.bodyLeft = int64(binary.BigEndian.Uint32(f.hdr[20:]))
		f.tag = binary.BigEndian.Uint32(f.hdr[24:])
		f.size = wire.HeaderSize + f.bodyLeft
		if f.bodyLeft == 0 {
			end(f.tag, f.size)
		}
	}
}

// tracedConn wraps a client connection below the tagged transport and
// pairs request and response frames by tag: a call span runs from the
// Write that carried the request's first byte to the Read that
// delivered the response's last byte. pvfsnet serializes writers and
// owns the single reader, so each parser has one user; only the
// pending table is shared between the two directions.
type tracedConn struct {
	net.Conn
	rank *rankTracer
	buf  *spanBuf
	w, r frameParser
	wcur span // the request frame being written

	mu   sync.Mutex
	pend map[uint32]span // by tag; End unset until the response lands
}

func (t *rankTracer) wrapConn(c net.Conn) net.Conn {
	return &tracedConn{Conn: c, rank: t, buf: t.rec.newBuf(), pend: make(map[uint32]span)}
}

func (c *tracedConn) Write(p []byte) (int, error) {
	ph := c.rank.rec.cur()
	t0 := c.rank.rec.now()
	// Registered before the write: the response may be read before
	// Write returns. A failed write kills the connection anyway.
	c.w.feed(p, func() {
		c.wcur = span{Kind: kindCall, Phase: ph, Start: t0, Op: c.rank.curOp.Load()}
	}, func(tag uint32, size int64) {
		c.wcur.ReqBytes = size
		if c.wcur.Phase != phaseOff {
			c.mu.Lock()
			c.pend[tag] = c.wcur
			c.mu.Unlock()
		}
	})
	return c.Conn.Write(p)
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.r.feed(p[:n], nil, func(tag uint32, size int64) {
		c.mu.Lock()
		s, ok := c.pend[tag]
		delete(c.pend, tag)
		c.mu.Unlock()
		if ok {
			s.End = c.rank.rec.now()
			s.RespBytes = size
			c.buf.add(s)
		}
	})
	return n, err
}

// tracedStore times every data call a daemon makes into its store. The
// concrete wrappers below re-expose exactly the optional interfaces of
// the store they wrap, so a traced daemon's type assertions pick the
// same submission rung as an untraced one.
type tracedStore struct {
	store.Store
	rec *recorder
	buf *spanBuf
}

func (t *tracedStore) time() func() {
	ph := t.rec.cur()
	if ph == phaseOff {
		return func() {}
	}
	start := t.rec.now()
	return func() {
		t.buf.add(span{Kind: kindStore, Phase: ph, Start: start, End: t.rec.now()})
	}
}

func (t *tracedStore) ReadAt(h uint64, p []byte, off int64) (int, error) {
	defer t.time()()
	return t.Store.ReadAt(h, p, off)
}

func (t *tracedStore) WriteAt(h uint64, p []byte, off int64) (int, error) {
	defer t.time()()
	return t.Store.WriteAt(h, p, off)
}

func (t *tracedStore) Truncate(h uint64, size int64) error {
	defer t.time()()
	return t.Store.Truncate(h, size)
}

func (t *tracedStore) IOStats() store.IOStats {
	return t.Store.(store.IOStatsProvider).IOStats()
}

// tracedVecBatch adds the two optional interfaces Dir and Cache share.
type tracedVecBatch struct {
	tracedStore
	v store.VectorIO
	b store.BatchIO
}

func (t *tracedVecBatch) ReadAtv(h uint64, segs ioseg.List, p []byte) (int, error) {
	defer t.time()()
	return t.v.ReadAtv(h, segs, p)
}

func (t *tracedVecBatch) WriteAtv(h uint64, segs ioseg.List, p []byte) (int, error) {
	defer t.time()()
	return t.v.WriteAtv(h, segs, p)
}

func (t *tracedVecBatch) ReadBatch(h uint64, spans []store.Span) (int, error) {
	defer t.time()()
	return t.b.ReadBatch(h, spans)
}

func (t *tracedVecBatch) WriteBatch(h uint64, spans []store.Span) (int, error) {
	defer t.time()()
	return t.b.WriteBatch(h, spans)
}

// tracedDir wraps an uncached *store.Dir. StreamReader's span covers
// only the open and stat: the sendfile itself runs later, inside the
// transport's response write, and shows up as iod self time.
type tracedDir struct {
	tracedVecBatch
	d *store.Dir
}

func (t *tracedDir) ReadSpanv(h uint64, off int64, bufs [][]byte) (int, error) {
	defer t.time()()
	return t.d.ReadSpanv(h, off, bufs)
}

func (t *tracedDir) WriteSpanv(h uint64, off int64, bufs [][]byte) (int, error) {
	defer t.time()()
	return t.d.WriteSpanv(h, off, bufs)
}

func (t *tracedDir) StreamReader(h uint64, off, n int64) (*store.FileStream, error) {
	defer t.time()()
	return t.d.StreamReader(h, off, n)
}

// tracedCache wraps a *store.Cache.
type tracedCache struct {
	tracedVecBatch
	c *store.Cache
}

func (t *tracedCache) Sync(h uint64) error {
	defer t.time()()
	return t.c.Sync(h)
}

func (t *tracedCache) SyncAll() error { return t.c.SyncAll() }

func (t *tracedCache) CacheStats() store.CacheStats { return t.c.CacheStats() }

// wrapStore returns st behind the traced wrapper for its concrete type.
func (r *recorder) wrapStore(st store.Store) store.Store {
	base := tracedStore{Store: st, rec: r, buf: r.newBuf()}
	switch s := st.(type) {
	case *store.Dir:
		return &tracedDir{tracedVecBatch{base, s, s}, s}
	case *store.Cache:
		return &tracedCache{tracedVecBatch{base, s, s}, s}
	}
	panic("bench: no traced wrapper for this store type")
}
