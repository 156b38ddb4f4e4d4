package pvfsnet

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"pvfs/internal/wire"
)

// TestDialContextHonorsDeadline is the regression test for the bare
// net.Dial bug: dialing a blackholed address must return when the
// context expires, not after the kernel's (minutes-long) connect
// timeout. 192.0.2.1 is TEST-NET-1 (RFC 5737), guaranteed unroutable;
// environments that reject it immediately still satisfy the assertion
// (an error, promptly).
func TestDialContextHonorsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	c, err := DialContext(ctx, "192.0.2.1:4000")
	if err == nil {
		// Some sandboxes route everything through a transparent proxy
		// that accepts any connect; nothing can be blackholed there.
		c.Close()
		t.Skip("environment accepts connects to TEST-NET-1; cannot blackhole")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial took %v; the context deadline was 100ms", elapsed)
	}
}

// TestDialContextCanceled: an already-canceled context must not dial
// at all.
func TestDialContextCanceled(t *testing.T) {
	srv := startEcho(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c, err := DialContext(ctx, srv.Addr()); err == nil {
		c.Close()
		t.Fatal("dial with canceled context succeeded")
	}
}

// TestWaitContextAbandonsTag: canceling one call must fail only that
// call; the connection keeps working for subsequent tags, and the
// abandoned tag's late response is discarded and its pooled body
// returned (BufStats puts delta).
func TestWaitContextAbandonsTag(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv := NewServer(ln, func(req wire.Message) wire.Message {
		if req.Handle == 99 { // the slow request holds until released
			<-release
		}
		return wire.Message{Header: wire.Header{Handle: req.Handle + 1}, Body: bytes.Repeat([]byte("x"), 4096)}
	}, nil)
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = c.CallContext(ctx, wire.Message{Header: wire.Header{Type: wire.TPing, Handle: 99}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}

	// The connection must still be healthy for other tags.
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TPing, Handle: 1}})
	if err != nil || resp.Handle != 2 {
		t.Fatalf("connection unusable after canceled call: %v %+v", err, resp)
	}

	// Release the slow handler; its response must be discarded (not
	// kill the connection) and its body recycled.
	_, puts0 := wire.BufStats()
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, puts := wire.BufStats(); puts > puts0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned response body never returned to the pool")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the connection is still fine after the late response.
	if resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TPing, Handle: 7}}); err != nil || resp.Handle != 8 {
		t.Fatalf("connection unusable after abandoned response: %v %+v", err, resp)
	}
	c.mu.Lock()
	rerr, npending, nabandoned := c.rerr, len(c.pending), len(c.abandoned)
	c.mu.Unlock()
	if rerr != nil || npending != 0 || nabandoned != 0 {
		t.Fatalf("conn state after abandon cycle: rerr=%v pending=%d abandoned=%d", rerr, npending, nabandoned)
	}
}

// TestStallMidBodyFailsOnlyAffectedTags: a peer that stalls mid-frame
// wedges the byte stream; per-call deadlines must fail the waiting
// calls individually without poisoning the connection, and once the
// peer resumes, the same connection serves new calls.
func TestStallMidBodyFailsOnlyAffectedTags(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resume := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, err := wire.ReadMessage(conn)
		if err != nil {
			return
		}
		// Frame a full response, but send only part of its body.
		var buf bytes.Buffer
		wire.WriteMessage(&buf, wire.Message{
			Header: wire.Header{Type: req.Type.Response(), Tag: req.Tag},
			Body:   bytes.Repeat([]byte("y"), 1000),
		})
		frame := buf.Bytes()
		conn.Write(frame[:len(frame)-600])
		<-resume
		conn.Write(frame[len(frame)-600:])
		// Serve everything else normally.
		for {
			req, err := wire.ReadMessage(conn)
			if err != nil {
				return
			}
			var out bytes.Buffer
			wire.WriteMessage(&out, wire.Message{
				Header: wire.Header{Type: req.Type.Response(), Tag: req.Tag, Handle: req.Handle + 1},
			})
			conn.Write(out.Bytes())
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx1, cancel1 := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel1()
	if _, err := c.CallContext(ctx1, wire.Message{Header: wire.Header{Type: wire.TPing, Handle: 1}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled call: err = %v, want DeadlineExceeded", err)
	}
	// A second call issued while the stream is wedged also fails only
	// by its own deadline.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel2()
	if _, err := c.CallContext(ctx2, wire.Message{Header: wire.Header{Type: wire.TPing, Handle: 2}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second call on stalled conn: err = %v, want DeadlineExceeded", err)
	}
	c.mu.Lock()
	rerr := c.rerr
	c.mu.Unlock()
	if rerr != nil {
		t.Fatalf("stall marked the connection broken: %v", rerr)
	}

	// Peer resumes: the late responses are discarded as abandoned tags
	// and the connection serves fresh calls.
	close(resume)
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TPing, Handle: 10}})
	if err != nil || resp.Handle != 11 {
		t.Fatalf("connection unusable after stall recovery: %v %+v", err, resp)
	}
}

// TestStallMidBodyWithDestReleasesMemory is the destination case of the
// stall above: the body is being read straight into the caller's memory
// when the peer wedges. The call must fail by its own deadline — the
// abandon wakes the blocked read instead of waiting on the peer — and
// from then on the memory is the caller's: poisoned after the call
// returns, it is never written again, even when the peer resumes and
// the rest of the body arrives. The same *Conn serves the next call.
// Both receive paths are held to it: readv on the TCP socket and
// io.ReadFull per piece on a wrapped connection, and, on the wrapped
// one, a read that lands a byte after its deadline woke it: the call
// must not return before that byte has landed. In the prefix cases the
// peer stalls 100 bytes into the body, so the read that took the header
// buffered every body byte that arrived: they reach the destination
// from the buffer, and the drain after the abandon must count them or
// it would eat into the next frame.
func TestStallMidBodyWithDestReleasesMemory(t *testing.T) {
	const n = 256 << 10
	readv := func(nc net.Conn) net.Conn { return nc }
	perPiece := func(nc net.Conn) net.Conn { return hideTCP{nc} }
	for name, tc := range map[string]struct {
		wrap func(net.Conn) net.Conn
		cut  int // body bytes sent before the stall
	}{
		"readv":            {readv, n / 3},
		"per-piece":        {perPiece, n / 3},
		"late-landing":     {func(nc net.Conn) net.Conn { return &lateConn{Conn: nc} }, n / 3},
		"readv-prefix":     {readv, 100},
		"per-piece-prefix": {perPiece, 100},
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			resume := make(chan struct{})
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				req, err := wire.ReadMessage(conn)
				if err != nil {
					return
				}
				var buf bytes.Buffer
				wire.WriteMessage(&buf, wire.Message{
					Header: wire.Header{Type: req.Type.Response(), Tag: req.Tag},
					Body:   bytes.Repeat([]byte("y"), n),
				})
				frame := buf.Bytes()
				cut := wire.HeaderSize + tc.cut
				conn.Write(frame[:cut])
				<-resume
				conn.Write(frame[cut:])
				for {
					req, err := wire.ReadMessage(conn)
					if err != nil {
						return
					}
					var out bytes.Buffer
					wire.WriteMessage(&out, wire.Message{
						Header: wire.Header{Type: req.Type.Response(), Tag: req.Tag, Handle: req.Handle + 1},
					})
					conn.Write(out.Bytes())
				}
			}()

			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			c := NewConn(ln.Addr().String(), tc.wrap(nc))
			defer c.Close()

			v, arena := destVec(n, 4096)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err = c.CallContext(ctx, wire.Message{Header: wire.Header{Type: wire.TRead, Handle: 1}, Dest: v})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("stalled call: err = %v, want DeadlineExceeded", err)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("the stalled call returned after %v: its wait was held by the peer", took)
			}
			if bytes.Count(arena, []byte("y")) == 0 {
				t.Fatal("the stall fired before any body byte reached the destination")
			}
			for i := range arena {
				arena[i] = poison
			}
			close(resume)
			next, cancelNext := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancelNext()
			resp, err := c.CallContext(next, wire.Message{Header: wire.Header{Type: wire.TPing, Handle: 10}})
			if err != nil || resp.Handle != 11 {
				t.Fatalf("connection unusable after the stall: %v %+v", err, resp)
			}
			if !untouched(arena) {
				t.Fatal("body bytes were written into the destination after the call gave up")
			}
			c.mu.Lock()
			rerr := c.rerr
			c.mu.Unlock()
			if rerr != nil {
				t.Fatalf("the stall marked the connection broken: %v", rerr)
			}
		})
	}
}

// lateConn hides the TCP connection like hideTCP and lands one body
// byte late: it holds back the last byte of every short body read (the
// socket ran dry) and hands it over with the next read's bytes — or,
// when a deadline wakes that read, 30 ms after the wake. That is a
// readv completing as the deadline strikes: it writes the caller's
// memory after the waker has moved on. Only the first frame is touched.
type lateConn struct {
	net.Conn
	seen int    // bytes read from the socket so far
	held []byte // the byte held back, if any
	done bool   // the first frame is over: pass through
}

func (c *lateConn) Read(p []byte) (int, error) {
	if c.done || len(p) < 2 {
		return c.Conn.Read(p)
	}
	off := 0
	if c.held != nil {
		off = 1
	}
	n, err := c.Conn.Read(p[off:])
	c.seen += n
	if c.held != nil {
		if n == 0 && errors.Is(err, os.ErrDeadlineExceeded) {
			time.Sleep(30 * time.Millisecond)
			err, c.done = nil, true
		}
		p[0], c.held = c.held[0], nil
		n++
	}
	if !c.done && err == nil && n > 1 && n < len(p) && c.seen-n >= wire.HeaderSize {
		c.held = []byte{p[n-1]}
		n--
	}
	return n, err
}

// TestPoolConnReusedAfterCancel pins the acceptance criterion at the
// transport layer: a canceled in-flight call must leave the pooled
// connection in place, and the next operation uses the same *Conn.
func TestPoolConnReusedAfterCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	srv := NewServer(ln, func(req wire.Message) wire.Message {
		if req.Handle == 99 {
			<-block
		}
		return wire.Message{Header: wire.Header{Handle: req.Handle + 1}}
	}, nil)
	defer srv.Close()

	p := NewPool()
	defer p.Close()
	a, err := p.Get(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	if _, err := a.CallContext(ctx, wire.Message{Header: wire.Header{Type: wire.TPing, Handle: 99}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	close(block)

	b, err := p.Get(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("pool replaced the connection after a canceled call")
	}
	if resp, err := b.Call(wire.Message{Header: wire.Header{Type: wire.TPing, Handle: 5}}); err != nil || resp.Handle != 6 {
		t.Fatalf("reused connection failed: %v %+v", err, resp)
	}
}

// TestPoolSharedDialSurvivesInitiatorCancel: the singleflight dial is
// detached — canceling the operation that initiated it must not fail
// a concurrent waiter, and the connection lands in the pool.
func TestPoolSharedDialSurvivesInitiatorCancel(t *testing.T) {
	srv := startEcho(t)
	p := NewPool()
	defer p.Close()
	gate := make(chan struct{})
	p.dial = func(addr string) (*Conn, error) {
		<-gate
		return Dial(addr)
	}
	ictx, icancel := context.WithCancel(context.Background())
	initiatorErr := make(chan error, 1)
	go func() {
		_, err := p.GetContext(ictx, srv.Addr())
		initiatorErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // initiator is parked in the dial
	waiterDone := make(chan error, 1)
	go func() {
		c, err := p.GetContext(context.Background(), srv.Addr())
		if err == nil {
			_, err = c.Call(wire.Message{Header: wire.Header{Type: wire.TPing}})
		}
		waiterDone <- err
	}()
	icancel() // initiator gives up; the shared dial must keep going
	if err := <-initiatorErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("initiator err = %v, want Canceled", err)
	}
	close(gate)
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter failed after initiator cancel: %v", err)
	}
	// The dialed connection is pooled for later Gets.
	if _, err := p.GetContext(context.Background(), srv.Addr()); err != nil {
		t.Fatal(err)
	}
}

// TestPoolGetContextWaiterTimesOut: a Get waiting on another
// goroutine's slow dial stops waiting when its own context ends.
func TestPoolGetContextWaiterTimesOut(t *testing.T) {
	p := NewPool()
	defer p.Close()
	slow := make(chan struct{})
	p.dial = func(addr string) (*Conn, error) {
		<-slow
		return nil, errors.New("never")
	}
	go p.Get("1.2.3.4:5") // initiator, parked in the slow dial
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.GetContext(ctx, "1.2.3.4:5")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("waiter did not honor its own deadline")
	}
	close(slow)
}
