package pvfsnet

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvfs/internal/wire"
)

// readLoopServer declares TWrite local, as an I/O daemon declares
// every request. It records the handle of each TWrite it handles, in
// arrival order, and whether two of its TWrite handler calls ever
// overlapped; every other request goes to other.
type readLoopServer struct {
	*Server
	mu       sync.Mutex
	order    []uint64
	inflight atomic.Int32
	overlap  atomic.Bool
	other    func(wire.Message) // handles every non-TWrite request
}

func startReadLoopServer(t *testing.T, other func(wire.Message)) *readLoopServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &readLoopServer{other: other}
	local := func(req wire.Message) bool { return req.Type == wire.TWrite }
	s.Server = NewLocalServer(ln, func(req wire.Message) wire.Message {
		if req.Type != wire.TWrite {
			s.other(req)
			return wire.Message{Header: wire.Header{Handle: req.Handle}}
		}
		if s.inflight.Add(1) > 1 {
			s.overlap.Store(true)
		}
		time.Sleep(100 * time.Microsecond) // room for an overlap to show
		s.mu.Lock()
		s.order = append(s.order, req.Handle)
		s.mu.Unlock()
		s.inflight.Add(-1)
		return wire.Message{Header: wire.Header{Handle: req.Handle}}
	}, local, nil)
	t.Cleanup(func() { s.Close() })
	return s
}

func (s *readLoopServer) handled() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.order...)
}

// Local TWrites are handled one at a time, in the order they were
// sent; non-local requests on the same connection still overlap each
// other.
func TestWritesHandledInOrder(t *testing.T) {
	var arrived atomic.Int32
	both := make(chan struct{})
	srv := startReadLoopServer(t, func(wire.Message) {
		// Each TRead waits for the other: only overlapping handlers
		// get past this.
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(2 * time.Second):
		}
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const writes = 32
	body := make([]byte, 1000)
	var pend []*Pending
	call := func(typ wire.MsgType, handle uint64) {
		p, err := c.CallAsync(wire.Message{Header: wire.Header{Type: typ, Handle: handle}, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	call(wire.TRead, 1000)
	for i := range writes / 2 {
		call(wire.TWrite, uint64(i))
	}
	call(wire.TRead, 1001)
	for i := writes / 2; i < writes; i++ {
		call(wire.TWrite, uint64(i))
	}
	start := time.Now()
	for _, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(start) > time.Second {
		t.Fatal("the two reads on one connection did not overlap")
	}
	got := srv.handled()
	if len(got) != writes {
		t.Fatalf("%d writes handled, want %d", len(got), writes)
	}
	for i, h := range got {
		if h != uint64(i) {
			t.Fatalf("write %d handled in position %d: %v", h, i, got)
		}
	}
	if srv.overlap.Load() {
		t.Fatal("two writes were handled at once")
	}
}

// The fault injector acts on a local TWrite in arrival order: a drop closes
// the connection before the body is read, a failure answers without
// calling the handler and leaves the connection usable, and a service
// delay holds back only the response, so the delays of pipelined
// requests overlap.
func TestInlineWriteFaults(t *testing.T) {
	srv := startReadLoopServer(t, func(wire.Message) {})
	f := &Faults{}
	srv.SetFaults(f)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	write := func(c *Conn, handle uint64) error {
		_, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TWrite, Handle: handle}, Body: make([]byte, 4<<10)})
		return err
	}

	f.FailRequests(1)
	var se *wire.StatusError
	if err := write(c, 1); !errors.As(err, &se) || se.Status != wire.StatusIOError {
		t.Fatalf("failed write: %v, want StatusIOError", err)
	}
	if err := write(c, 2); err != nil {
		t.Fatalf("write after an injected failure: %v", err)
	}

	f.DropConnections(1)
	if err := write(c, 3); err == nil {
		t.Fatal("dropped write answered")
	}
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := write(c2, 4); err != nil {
		t.Fatalf("write on a new connection after a drop: %v", err)
	}
	if got := srv.handled(); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("handled %v, want [2 4]: a failed or dropped request reached the handler", got)
	}

	const delay, n = 100 * time.Millisecond, 8
	f.SetDelay(delay)
	start := time.Now()
	var pend []*Pending
	for i := range n {
		p, err := c2.CallAsync(wire.Message{Header: wire.Header{Type: wire.TWrite, Handle: uint64(10 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	for len(srv.handled()) < 2+n {
		if time.Since(start) >= delay {
			t.Fatal("the delay held back the handler, not only the response")
		}
		time.Sleep(time.Millisecond)
	}
	for _, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took < delay || took > n*delay/2 {
		t.Fatalf("%d pipelined writes delayed %v each took %v: delays not overlapped", n, delay, took)
	}
	if got := srv.handled(); len(got) != 2+n || got[2] != 10 || got[1+n] != 10+n-1 {
		t.Fatalf("handled %v after the delayed writes", got)
	}
}
