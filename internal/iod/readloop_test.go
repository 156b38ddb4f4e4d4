package iod_test

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvfs/internal/iod"
	"pvfs/internal/ioseg"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/store"
	"pvfs/internal/wire"
)

// chunk is the client's contiguous chunk.
const chunk = wire.ChunkBytes

// rawConn is a bare TCP connection to a daemon: a large request leaves
// by one writev straight from the test's memory and responses are read
// into the test's memory, so the client side of a contiguous write
// takes nothing from the wire buffer pool.
type rawConn struct {
	t *testing.T
	net.Conn
	tag uint32
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, Conn: c}
}

// send writes one request and returns its tag.
func (r *rawConn) send(typ wire.MsgType, handle uint64, body []byte) uint32 {
	r.t.Helper()
	r.tag++
	if err := wire.WriteMessage(r.Conn, wire.Message{Header: wire.Header{Type: typ, Handle: handle, Tag: r.tag}, Body: body}); err != nil {
		r.t.Fatal(err)
	}
	return r.tag
}

// recv reads one response with a body of at most 64 bytes.
func (r *rawConn) recv() (wire.Header, []byte) {
	r.t.Helper()
	return r.recvUpTo(64)
}

// recvUpTo reads one response with a body of at most limit bytes.
func (r *rawConn) recvUpTo(limit uint32) (wire.Header, []byte) {
	r.t.Helper()
	h, err := wire.ReadHeader(r.Conn)
	if err != nil {
		r.t.Fatal(err)
	}
	if h.BodyLen > limit {
		r.t.Fatalf("%d-byte %v body", h.BodyLen, h.Type)
	}
	body := make([]byte, h.BodyLen)
	if _, err := wire.ReadInto(r.Conn, [][]byte{body}); err != nil {
		r.t.Fatal(err)
	}
	return h, body
}

// written reads the response to the write sent with tag and returns
// its acknowledged byte count.
func (r *rawConn) written(tag uint32) int64 {
	r.t.Helper()
	h, body := r.recv()
	if h.Tag != tag || h.Type != wire.TWrite.Response() || h.Status != wire.StatusOK {
		r.t.Fatalf("response %v tag %d status %v, want an OK write with tag %d", h.Type, h.Tag, h.Status, tag)
	}
	var wr wire.WrittenResp
	if err := wr.Unmarshal(body); err != nil {
		r.t.Fatal(err)
	}
	return wr.N
}

func writeBody(off int64, data []byte) []byte {
	return (&wire.WriteReq{Offset: off, Data: data}).Marshal()
}

// awaitBufBalance polls until every pooled buffer taken since the
// baseline has come back.
func awaitBufBalance(t *testing.T, gets0, puts0 int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		gets, puts := wire.BufStats()
		if gets-gets0 == puts-puts0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled buffers leaked: %d gets vs %d puts since baseline", gets-gets0, puts-puts0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countingStore counts the WriteAt calls that reach its store and
// records the distinct addresses their data arrived at.
type countingStore struct {
	store.Store
	writes atomic.Int64
	mu     sync.Mutex
	at     map[*byte]bool
}

func (s *countingStore) WriteAt(handle uint64, p []byte, off int64) (int, error) {
	s.writes.Add(1)
	if len(p) > 0 {
		s.mu.Lock()
		if s.at == nil {
			s.at = make(map[*byte]bool)
		}
		s.at[&p[0]] = true
		s.mu.Unlock()
	}
	return s.Store.WriteAt(handle, p, off)
}

// addresses returns how many distinct addresses write data arrived at.
func (s *countingStore) addresses() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.at)
}

// Pipelined contiguous writes on one connection land in one body buffer
// the wire pool lends each of them in turn, the one the write before
// gave back: each write draws one pooled body and at most its
// acknowledgement frame, every write's data arrives at one address, and
// the pool stays balanced while the connection lives. Each write is one
// store.WriteAt, answered in the order sent.
func TestPipelinedWritesReuseOneBody(t *testing.T) {
	st := &countingStore{Store: store.NewMem()}
	srv, err := iod.Listen("127.0.0.1:0", st, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	r := dialRaw(t, srv.Addr())
	const n = 16
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = writeBody(int64(i)*chunk, bytes.Repeat([]byte{byte(i + 1)}, chunk))
	}
	// With two buffers parked in the bodies' class, a free list that
	// hands out its oldest buffer would alternate between them.
	parked := [][]byte{wire.GetBuf(len(bodies[0])), wire.GetBuf(len(bodies[0]))}
	for _, b := range parked {
		wire.PutBuf(b)
	}
	gets0, puts0 := wire.BufStats()
	var tags []uint32
	for _, b := range bodies {
		tags = append(tags, r.send(wire.TWrite, 5, b))
	}
	for _, tag := range tags {
		if got := r.written(tag); got != chunk {
			t.Fatalf("write %d acknowledged %d bytes", tag, got)
		}
	}
	if gets, _ := wire.BufStats(); gets-gets0 > 2*n {
		t.Fatalf("%d pooled buffers for %d writes: want one body and at most one acknowledgement frame each", gets-gets0, n)
	}
	awaitBufBalance(t, gets0, puts0)

	if w := st.writes.Load(); w != n {
		t.Fatalf("%d store writes for %d requests", w, n)
	}
	if a := st.addresses(); a != 1 {
		t.Fatalf("the data of %d writes arrived at %d addresses, want one", n, a)
	}
	got := make([]byte, n*chunk)
	if _, err := st.ReadAt(5, got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range n {
		if !bytes.Equal(got[i*chunk:(i+1)*chunk], bytes.Repeat([]byte{byte(i + 1)}, chunk)) {
			t.Fatalf("chunk %d differs", i)
		}
	}
}

// A write larger than a chunk is read into a pooled buffer of its own
// class, applied whole by one store.WriteAt and answered with its full
// length; the buffer goes back to the pool.
func TestOversizedWriteAppliedWhole(t *testing.T) {
	st := &countingStore{Store: store.NewMem()}
	srv, err := iod.Listen("127.0.0.1:0", st, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	gets0, puts0 := wire.BufStats()
	r := dialRaw(t, srv.Addr())
	data := make([]byte, 3<<20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if got := r.written(r.send(wire.TWrite, 9, writeBody(100, data))); got != int64(len(data)) {
		t.Fatalf("3 MiB write acknowledged %d bytes", got)
	}
	if w := st.writes.Load(); w != 1 {
		t.Fatalf("%d store writes for one request", w)
	}
	got := make([]byte, len(data))
	if _, err := st.ReadAt(9, got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("3 MiB write not applied whole")
	}
	r.Close()
	awaitBufBalance(t, gets0, puts0)
}

// A write body too short for its fixed fields is answered
// StatusProtocol, and the connection goes on serving.
func TestShortWriteBodyAnsweredProtocol(t *testing.T) {
	srv, err := iod.Listen("127.0.0.1:0", store.NewMem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	r := dialRaw(t, srv.Addr())
	tag := r.send(wire.TWrite, 3, []byte{1, 2, 3, 4, 5})
	if h, _ := r.recv(); h.Tag != tag || h.Status != wire.StatusProtocol {
		t.Fatalf("short body answered tag %d status %v, want StatusProtocol", h.Tag, h.Status)
	}
	if got := r.written(r.send(wire.TWrite, 3, writeBody(0, []byte("after")))); got != 5 {
		t.Fatalf("write after a short body acknowledged %d bytes", got)
	}
}

// slowFlushStore makes every write-back batch take delay, so writers
// to a cache above it wait in dirty back-pressure.
type slowFlushStore struct {
	store.Store
	delay   time.Duration
	batches atomic.Int64
}

func (s *slowFlushStore) WriteBatch(handle uint64, spans []store.Span) (int, error) {
	s.batches.Add(1)
	time.Sleep(s.delay)
	return s.Store.WriteBatch(handle, spans)
}

// Close and Kill return promptly while a contiguous write waits in the
// cache's dirty back-pressure with more writes queued behind it on its
// connection: the daemon applies the one in hand, not the backlog.
func TestStopDuringWriteBackpressure(t *testing.T) {
	for name, stop := range map[string]func(*iod.Server) error{
		"close": (*iod.Server).Close,
		"kill":  (*iod.Server).Kill,
	} {
		t.Run(name, func(t *testing.T) {
			inner := &slowFlushStore{Store: store.NewMem(), delay: 100 * time.Millisecond}
			cache := store.Cached(inner, store.CacheOptions{
				BlockSize:      64 << 10,
				MaxBytes:       4 << 20,
				DirtyHighWater: 64 << 10,
				FlushInterval:  -1,
			})
			srv, err := iod.Listen("127.0.0.1:0", cache, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			r := dialRaw(t, srv.Addr())
			go func() {
				for i := range 16 {
					b := writeBody(int64(i)*chunk, make([]byte, chunk))
					if wire.WriteMessage(r.Conn, wire.Message{Header: wire.Header{Type: wire.TWrite, Handle: 1, Tag: uint32(i + 1)}, Body: b}) != nil {
						return // the daemon stopped
					}
				}
			}()
			deadline := time.Now().Add(2 * time.Second)
			for inner.batches.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("no write reached back-pressure")
				}
				time.Sleep(time.Millisecond)
			}
			done := make(chan error, 1)
			start := time.Now()
			go func() { done <- stop(srv) }()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatalf("%s still running %v after it was called", name, time.Since(start))
			}
		})
	}
}

// cyclicRegions returns n regions of size bytes, one every stride bytes.
func cyclicRegions(n int, size, stride int64) ioseg.List {
	l := make(ioseg.List, n)
	for i := range l {
		l[i] = ioseg.Segment{Offset: int64(i) * stride, Length: size}
	}
	return l
}

func listBody(t *testing.T, regions ioseg.List, data []byte) []byte {
	t.Helper()
	b, err := (&wire.ListReq{Regions: regions, Data: data}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// List writes and list reads pipelined on one connection are applied
// and answered in the order sent: each read returns exactly what the
// write sent just before it put in the same regions.
func TestListRequestsAnsweredInOrder(t *testing.T) {
	srv, err := iod.Listen("127.0.0.1:0", store.NewMem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	r := dialRaw(t, srv.Addr())
	const rounds, size = 16, 4 << 10
	regions := cyclicRegions(16, size, 4*size)
	total := int(regions.TotalLength())
	readBody := listBody(t, regions, nil)
	writes := make([][]byte, rounds)
	for i := range writes {
		writes[i] = listBody(t, regions, bytes.Repeat([]byte{byte(i + 1)}, total))
	}
	go func() {
		// The sender runs ahead of the responses: the daemon must not
		// reorder what is queued on the connection. Round i's write has
		// tag 2i+1, its read 2i+2.
		for i, w := range writes {
			tag := uint32(2*i + 1)
			if wire.WriteMessage(r.Conn, wire.Message{Header: wire.Header{Type: wire.TWriteList, Handle: 2, Tag: tag}, Body: w}) != nil ||
				wire.WriteMessage(r.Conn, wire.Message{Header: wire.Header{Type: wire.TReadList, Handle: 2, Tag: tag + 1}, Body: readBody}) != nil {
				return
			}
		}
	}()
	for i := range rounds {
		for _, typ := range []wire.MsgType{wire.TWriteList, wire.TReadList} {
			tag := uint32(2*i + 1)
			if typ == wire.TReadList {
				tag++
			}
			h, body := r.recvUpTo(uint32(total))
			if h.Tag != tag || h.Type != typ.Response() || h.Status != wire.StatusOK {
				t.Fatalf("round %d: response %v tag %d status %v, want an OK %v with tag %d", i, h.Type, h.Tag, h.Status, typ, tag)
			}
			if typ == wire.TReadList && !bytes.Equal(body, bytes.Repeat([]byte{byte(i + 1)}, total)) {
				t.Fatalf("round %d: list read did not see the write sent before it", i)
			}
		}
	}
}

// An idle connection holds no request body: connections that each
// carried one list write and one list read of 16 x 4 KiB and then idle
// hold little heap.
func TestIdleListConnectionsHoldLittleHeap(t *testing.T) {
	srv, err := iod.Listen("127.0.0.1:0", store.NewMem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const conns, size = 128, 4 << 10
	regions := cyclicRegions(16, size, 4*size)
	writeBody := listBody(t, regions, make([]byte, regions.TotalLength()))
	readBody := listBody(t, regions, nil)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	cs := make([]*pvfsnet.Conn, conns)
	for i := range cs {
		c, err := pvfsnet.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TWriteList, Handle: 1}, Body: writeBody}); err != nil {
			t.Fatal(err)
		}
		resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TReadList, Handle: 1}, Body: readBody})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
		cs[i] = c
	}
	grew := int64(heap()) - int64(before)
	if per := grew / conns; per >= 8<<10 {
		t.Fatalf("each idle connection holds %d B of heap (%d B for %d), want < 8 KiB", per, grew, conns)
	}
	runtime.KeepAlive(cs)
}

// panicStore panics on Size of handle 666: a handler bug on the read
// loop.
type panicStore struct{ store.Store }

func (s panicStore) Size(handle uint64) (int64, error) {
	if handle == 666 {
		panic("store bug")
	}
	return s.Store.Size(handle)
}

// A handler panic on a connection's read loop is answered
// StatusProtocol and counted in the daemon's stats, over the wire too,
// and the connection goes on answering.
func TestHandlerPanicCountedInStats(t *testing.T) {
	srv, err := iod.Listen("127.0.0.1:0", panicStore{store.NewMem()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := pvfsnet.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var se *wire.StatusError
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TStat, Handle: 666}}); !errors.As(err, &se) || se.Status != wire.StatusProtocol {
		t.Fatalf("panicking stat: %v, want StatusProtocol", err)
	}
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TStat, Handle: 1}}); err != nil {
		t.Fatalf("stat after a panic on the same connection: %v", err)
	}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TServerStats}})
	if err != nil {
		t.Fatal(err)
	}
	var st wire.ServerStats
	if err := st.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	if st.HandlerPanics != 1 || srv.Stats().HandlerPanics != 1 {
		t.Fatalf("HandlerPanics %d over the wire, %d in process; want 1", st.HandlerPanics, srv.Stats().HandlerPanics)
	}
}
