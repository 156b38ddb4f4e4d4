package pvfsnet

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvfs/internal/wire"
)

// localServer declares TStat local. It records the handle of each TStat
// it handles, in order, and whether two TStat handler calls ever
// overlapped; a TRead waits in its handler until hold is closed.
type localServer struct {
	*Server
	hold     chan struct{}
	mu       sync.Mutex
	order    []uint64
	inflight atomic.Int32
	overlap  atomic.Bool
	reading  atomic.Int32 // TRead handlers in progress
}

func startLocalServer(t *testing.T) *localServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &localServer{hold: make(chan struct{})}
	local := func(req wire.Message) bool { return req.Type == wire.TStat }
	s.Server = NewLocalServer(ln, func(req wire.Message) wire.Message {
		switch req.Type {
		case wire.TRead:
			s.reading.Add(1)
			defer s.reading.Add(-1)
			select {
			case <-s.hold:
			case <-time.After(5 * time.Second):
			}
		case wire.TStat:
			if s.inflight.Add(1) > 1 {
				s.overlap.Store(true)
			}
			time.Sleep(50 * time.Microsecond) // room for an overlap to show
			s.mu.Lock()
			s.order = append(s.order, req.Handle)
			s.mu.Unlock()
			s.inflight.Add(-1)
		}
		return wire.Message{Header: wire.Header{Handle: req.Handle}}
	}, local, nil)
	t.Cleanup(func() { s.Close() })
	return s
}

func (s *localServer) handled() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.order...)
}

// Local requests are handled one at a time in arrival order and
// answered while a non-local request sent before them on the same
// connection is still held in its handler.
func TestLocalRequestsAnsweredInOrder(t *testing.T) {
	srv := startLocalServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	held, err := c.CallAsync(wire.Message{Header: wire.Header{Type: wire.TRead, Handle: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	const stats = 32
	var pend []*Pending
	for i := range stats {
		p, err := c.CallAsync(wire.Message{Header: wire.Header{Type: wire.TStat, Handle: uint64(i)}, Body: []byte("name")})
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	for i, p := range pend {
		resp, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Handle != uint64(i) {
			t.Fatalf("stat %d answered with handle %d", i, resp.Handle)
		}
	}
	if srv.reading.Load() != 1 {
		t.Fatal("the stats were not answered while the read was held in its handler")
	}
	got := srv.handled()
	if len(got) != stats {
		t.Fatalf("%d stats handled, want %d", len(got), stats)
	}
	for i, h := range got {
		if h != uint64(i) {
			t.Fatalf("stat %d handled in position %d: %v", h, i, got)
		}
	}
	if srv.overlap.Load() {
		t.Fatal("two local requests were handled at once")
	}
	close(srv.hold)
	if resp, err := held.Wait(); err != nil || resp.Handle != 1000 {
		t.Fatalf("held read: %v %v", resp.Handle, err)
	}
}

// The fault injector acts on a local request as on any other: a failure
// is answered without calling the handler, and a service delay holds
// back the response on a goroutine that sleeps before writing it, so
// the delays of pipelined local requests overlap.
func TestLocalRequestFaults(t *testing.T) {
	srv := startLocalServer(t)
	f := &Faults{}
	srv.SetFaults(f)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	f.FailRequests(1)
	var se *wire.StatusError
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TStat, Handle: 1}}); !errors.As(err, &se) || se.Status != wire.StatusIOError {
		t.Fatalf("failed stat: %v, want StatusIOError", err)
	}
	if got := srv.handled(); len(got) != 0 {
		t.Fatalf("a failed request reached the handler: %v", got)
	}

	const delay, n = 100 * time.Millisecond, 8
	f.SetDelay(delay)
	start := time.Now()
	var pend []*Pending
	for i := range n {
		p, err := c.CallAsync(wire.Message{Header: wire.Header{Type: wire.TStat, Handle: uint64(10 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	for _, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took < delay || took > n*delay/2 {
		t.Fatalf("%d pipelined local requests delayed %v each took %v: delays not overlapped", n, delay, took)
	}
	if got := srv.handled(); len(got) != n {
		t.Fatalf("handled %v, want %d delayed stats", got, n)
	}
}

// liveHeap returns the bytes of heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// idleConns opens n connections to a server that declares every
// request local, sends one TWrite carrying body on each and leaves
// them idle; it returns the heap growth they left behind.
func idleConns(t *testing.T, n int, body []byte) int64 {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	all := func(wire.Message) bool { return true }
	srv := NewLocalServer(ln, func(wire.Message) wire.Message { return wire.Message{} }, all, nil)
	defer srv.Close()

	before := liveHeap()
	cs := make([]*Conn, n)
	for i := range cs {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TWrite}, Body: body}); err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	grew := liveHeap() - before
	runtime.KeepAlive(cs)
	return grew
}

// An idle connection holds no request body: connections that each
// carried one 1-byte local TWrite and then idle hold little heap.
func TestIdleWriteConnectionsHoldLittleHeap(t *testing.T) {
	const conns = 128
	grew := idleConns(t, conns, []byte{1})
	if per := grew / conns; per >= 8<<10 {
		t.Fatalf("each idle connection holds %d B of heap (%d B for %d), want < 8 KiB", per, grew, conns)
	}
}

// A connection does not keep the largest body it read: 128 connections
// that each carried one chunk-sized local TWrite and then idle hold
// less heap than the 16 chunk buffers the pool may park plus as many
// again, where a buffer per connection would hold 66 MiB.
func TestIdleChunkConnectionsHoldNoBody(t *testing.T) {
	const conns = 128
	grew := idleConns(t, conns, make([]byte, wire.ChunkBytes+wire.WriteReqFixedSize))
	if grew >= 16<<20 {
		t.Fatalf("%d idle connections that each carried one %d-byte body hold %d B of heap, want < 16 MiB",
			conns, wire.ChunkBytes+wire.WriteReqFixedSize, grew)
	}
}

// A local response may share its request's body: pipelined echoes,
// each answered after an injected delay while later frames are read,
// return their own bytes.
func TestLocalEchoUnderDelay(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	all := func(wire.Message) bool { return true }
	srv := NewLocalServer(ln, func(req wire.Message) wire.Message { return wire.Message{Body: req.Body} }, all, nil)
	defer srv.Close()
	f := &Faults{}
	f.SetDelay(5 * time.Millisecond)
	srv.SetFaults(f)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 8
	var pend []*Pending
	for i := range n {
		p, err := c.CallAsync(wire.Message{Header: wire.Header{Type: wire.TStat}, Body: bytes.Repeat([]byte{byte(i + 1)}, 4<<10)})
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	wrong := 0
	for i, p := range pend {
		resp, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Body, bytes.Repeat([]byte{byte(i + 1)}, 4<<10)) {
			wrong++
		}
		resp.Release()
	}
	if wrong > 0 {
		t.Fatalf("%d of %d delayed local echoes returned another request's bytes", wrong, n)
	}
}

// A handler panic, on a read loop (local) or a goroutine (not local), is
// answered StatusProtocol and counted, and its connection goes on
// answering.
func TestHandlerPanicsCounted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	local := func(req wire.Message) bool { return req.Type == wire.TStat }
	srv := NewLocalServer(ln, func(req wire.Message) wire.Message {
		if req.Handle == 666 {
			panic("handler bug")
		}
		return wire.Message{Header: wire.Header{Handle: req.Handle}}
	}, local, nil)
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, typ := range []wire.MsgType{wire.TStat, wire.TRead} {
		var se *wire.StatusError
		if _, err := c.Call(wire.Message{Header: wire.Header{Type: typ, Handle: 666}, Body: []byte("x")}); !errors.As(err, &se) || se.Status != wire.StatusProtocol {
			t.Fatalf("panicking %v: %v, want StatusProtocol", typ, err)
		}
		if got := srv.HandlerPanics(); got != int64(i+1) {
			t.Fatalf("after a panicking %v: %d panics counted, want %d", typ, got, i+1)
		}
		if resp, err := c.Call(wire.Message{Header: wire.Header{Type: typ, Handle: 7}}); err != nil || resp.Handle != 7 {
			t.Fatalf("%v after a panic on the same connection: handle %d, %v", typ, resp.Handle, err)
		}
	}
}
