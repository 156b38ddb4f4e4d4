package pvfsnet

// Tests for request destinations (wire.Message.Dest): a matching
// success body is read straight into caller memory, anything else takes
// the pooled path, and once a wait has given up or Abandon has
// returned, no byte is ever written into the destination again.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"pvfs/internal/wire"
)

const poison = 0xEE

// destVec cuts a poisoned arena of n bytes into pieces of at most
// piece bytes and returns a Vec over them.
func destVec(n, piece int) (*wire.Vec, []byte) {
	arena := bytes.Repeat([]byte{poison}, n)
	v := &wire.Vec{N: n}
	for b := arena; len(b) > 0; {
		k := min(piece, len(b))
		v.Pieces = append(v.Pieces, b[:k])
		b = b[k:]
	}
	return v, arena
}

// untouched reports whether every byte of arena still holds the poison.
func untouched(arena []byte) bool {
	return bytes.Count(arena, []byte{poison}) == len(arena)
}

// hideTCP hides the *net.TCPConn under a client connection, so bodies
// land through io.ReadFull per piece instead of readv, as they do on a
// fault-injecting wrapper.
type hideTCP struct{ net.Conn }

// dialBoth returns a connection to addr for each receive path.
func dialBoth(t *testing.T, addr string) map[string]*Conn {
	t.Helper()
	conns := map[string]*Conn{}
	for _, name := range []string{"readv", "per-piece"} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if name == "per-piece" {
			nc = hideTCP{nc}
		}
		c := NewConn(addr, nc)
		t.Cleanup(func() { c.Close() })
		conns[name] = c
	}
	return conns
}

// awaitBalanced waits until every pooled buffer taken since the
// baseline has come back and at least one has.
func awaitBalanced(t *testing.T, gets0, puts0 int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		gets, puts := wire.BufStats()
		if puts > puts0 && gets-gets0 == puts-puts0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool unbalanced: %d gets vs %d puts since baseline", gets-gets0, puts-puts0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The body of a matching success response lands in the destination
// over 2 000 pieces (past IOV_MAX) and is delivered without a pooled
// Body; an error status or a length mismatch takes the pooled path and
// leaves the destination untouched.
func TestDestScatterAndPooledFallbacks(t *testing.T) {
	const n = 64 << 10
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i*7 + 1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, func(req wire.Message) wire.Message {
		switch req.Handle {
		case 1:
			return wire.Message{Header: wire.Header{Status: wire.StatusIOError}, Body: body}
		case 2:
			return wire.Message{Body: body[:n/2]}
		}
		return wire.Message{Body: body}
	}, nil)
	defer srv.Close()

	for name, c := range dialBoth(t, srv.Addr()) {
		t.Run(name, func(t *testing.T) {
			v, arena := destVec(n, 31)
			resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TRead}, Dest: v})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Body != nil || int(resp.BodyLen) != n {
				t.Fatalf("scattered response: Body %d bytes, BodyLen %d; want nil and %d", len(resp.Body), resp.BodyLen, n)
			}
			if !bytes.Equal(arena, body) {
				t.Fatal("destination does not hold the response body")
			}

			for handle, want := range map[uint64]int{1: n, 2: n / 2} {
				v, arena := destVec(n, 31)
				resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TRead, Handle: handle}, Dest: v})
				var se *wire.StatusError
				if handle == 1 && !(errors.As(err, &se) && se.Status == wire.StatusIOError) {
					t.Fatalf("error status answer: err = %v", err)
				}
				if handle == 2 && err != nil {
					t.Fatal(err)
				}
				if len(resp.Body) != want || !bytes.Equal(resp.Body, body[:want]) {
					t.Fatalf("handle %d: pooled Body %d bytes, want %d", handle, len(resp.Body), want)
				}
				resp.Release()
				if !untouched(arena) {
					t.Fatalf("handle %d: a response that does not match wrote into the destination", handle)
				}
			}
		})
	}
}

// Abandoning a call before its response arrives drops the destination:
// the late body drains into a pooled buffer that goes back to the pool,
// the destination is never written, and the connection serves on.
func TestDestAbandonBeforeBody(t *testing.T) {
	const n = 64 << 10
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv := NewServer(ln, func(req wire.Message) wire.Message {
		if req.Handle == 99 {
			<-release
		}
		return wire.Message{Header: wire.Header{Handle: req.Handle + 1}, Body: make([]byte, n)}
	}, nil)
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	v, arena := destVec(n, 4096)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.CallContext(ctx, wire.Message{Header: wire.Header{Type: wire.TRead, Handle: 99}, Dest: v}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	gets0, puts0 := wire.BufStats()
	close(release)
	awaitBalanced(t, gets0, puts0)
	if !untouched(arena) {
		t.Fatal("the abandoned call's late body was written into its destination")
	}
	if resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TPing, Handle: 7}}); err != nil || resp.Handle != 8 {
		t.Fatalf("connection unusable after the abandoned call: %v %+v", err, resp)
	}
	c.mu.Lock()
	rerr, npending, nabandoned := c.rerr, len(c.pending), len(c.abandoned)
	c.mu.Unlock()
	if rerr != nil || npending != 0 || nabandoned != 0 {
		t.Fatalf("conn state after abandon: rerr=%v pending=%d abandoned=%d", rerr, npending, nabandoned)
	}
}
