package pvfsnet

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"pvfs/internal/wire"
)

// fragileConn is a dialed connection whose writes can be made to fail
// and which records being closed.
type fragileConn struct {
	net.Conn
	failWrites atomic.Bool
	closed     atomic.Bool
}

func (c *fragileConn) Write(p []byte) (int, error) {
	if c.failWrites.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

func (c *fragileConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestPoolDropsDeadConnections: GetContext never hands out a connection
// whose read loop failed, whose request write failed or which was
// closed. It closes each one it drops and dials one replacement, which
// later Gets share.
func TestPoolDropsDeadConnections(t *testing.T) {
	srv := startEcho(t)
	var faults Faults
	srv.SetFaults(&faults)
	p := NewPool()
	defer p.Close()
	var (
		mu    sync.Mutex
		dials []*fragileConn
	)
	p.SetConnWrap(func(nc net.Conn) net.Conn {
		fc := &fragileConn{Conn: nc}
		mu.Lock()
		dials = append(dials, fc)
		mu.Unlock()
		return fc
	})
	lastDial := func() (*fragileConn, int) {
		mu.Lock()
		defer mu.Unlock()
		return dials[len(dials)-1], len(dials)
	}
	get := func() *Conn {
		t.Helper()
		c, err := p.Get(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ping := wire.Message{Header: wire.Header{Type: wire.TPing}}

	for i, tc := range []struct {
		name string
		kill func(*Conn, *fragileConn)
	}{
		{"read loop failed", func(c *Conn, _ *fragileConn) {
			faults.DropConnections(1)
			if _, err := c.Call(ping); err == nil {
				t.Fatal("call across a dropped connection succeeded")
			}
		}},
		{"request write failed", func(c *Conn, fc *fragileConn) {
			fc.failWrites.Store(true)
			if _, err := c.CallAsync(ping); err == nil {
				t.Fatal("call whose write failed succeeded")
			}
		}},
		{"closed", func(c *Conn, _ *fragileConn) { c.Close() }},
	} {
		old := get()
		fc, n := lastDial()
		if n != i+1 {
			t.Fatalf("%s: %d dials before the failure, want %d", tc.name, n, i+1)
		}
		if _, err := old.Call(ping); err != nil {
			t.Fatalf("%s: healthy call: %v", tc.name, err)
		}
		tc.kill(old, fc)
		fresh := get()
		if fresh == old {
			t.Fatalf("%s: pool handed out the dead connection", tc.name)
		}
		if !fc.closed.Load() {
			t.Fatalf("%s: pool dropped the connection without closing it", tc.name)
		}
		if _, n := lastDial(); n != i+2 {
			t.Fatalf("%s: %d dials after the failure, want %d", tc.name, n, i+2)
		}
		if again := get(); again != fresh {
			t.Fatalf("%s: the replacement was not reused", tc.name)
		}
		if _, err := fresh.Call(ping); err != nil {
			t.Fatalf("%s: call on the replacement: %v", tc.name, err)
		}
	}
}

// TestWrongTypeResponseBreaksConnection: a response whose tag matches a
// pending call but whose type is not that call's response type means the
// peer is confused. The call fails, the connection dies with it, and the
// pool redials.
func TestWrongTypeResponseBreaksConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				for {
					req, err := wire.ReadMessage(nc)
					if err != nil {
						return
					}
					typ := req.Type.Response()
					if req.Handle == 1 {
						typ = wire.TStat.Response() // not what was asked
					}
					req.Release()
					resp := wire.Message{Header: wire.Header{Type: typ, Tag: req.Tag}}
					if wire.WriteMessage(nc, resp) != nil {
						return
					}
				}
			}()
		}
	}()

	p := NewPool()
	defer p.Close()
	c, err := p.Get(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TPing}}); err != nil {
		t.Fatalf("well-typed call: %v", err)
	}
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TPing, Handle: 1}}); err == nil {
		t.Fatal("call answered with the wrong response type succeeded")
	}
	if _, err := c.CallAsync(wire.Message{Header: wire.Header{Type: wire.TPing}}); err == nil {
		t.Fatal("connection still carries calls after a wrong-type response")
	}
	fresh, err := p.Get(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if fresh == c {
		t.Fatal("pool handed out the connection that got a wrong-type response")
	}
	if _, err := fresh.Call(wire.Message{Header: wire.Header{Type: wire.TPing}}); err != nil {
		t.Fatalf("call on the replacement: %v", err)
	}
}
