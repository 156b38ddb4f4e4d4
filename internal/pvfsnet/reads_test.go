package pvfsnet

// Tests for what a frame costs the receiving end in reads: both read
// loops own a frame reader, so a small frame is one Read, frames that
// arrived together are parsed without another, and a large body takes
// only its buffered prefix through the reader's buffer.

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"pvfs/internal/wire"
)

// countConn records every completed Read: how many bytes it returned
// and the last capacity byte of the slice it filled, which names the
// backing array the bytes landed in.
type countConn struct {
	net.Conn
	mu    sync.Mutex
	reads []readRec
}

type readRec struct {
	n   int
	end *byte
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.reads = append(c.reads, readRec{n, capEnd(p)})
	c.mu.Unlock()
	return n, err
}

// take returns the reads recorded since the last take.
func (c *countConn) take() []readRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.reads
	c.reads = nil
	return r
}

// capEnd returns the last byte of b's capacity, shared by every slice
// of the same backing array; nil for an empty one.
func capEnd(b []byte) *byte {
	if cap(b) == 0 {
		return nil
	}
	return &b[:cap(b)][cap(b)-1]
}

// countListener hands the server a countConn per accepted connection.
type countListener struct {
	net.Listener
	conns chan *countConn
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countConn{Conn: c}
	l.conns <- cc
	return cc, nil
}

// countedServer starts a server over a counting listener.
func countedServer(t *testing.T, h Handler) (*Server, chan *countConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan *countConn, 4)
	srv := NewServer(countListener{ln, conns}, h, nil)
	t.Cleanup(func() { srv.Close() })
	return srv, conns
}

// countedConn dials addr and returns a client connection over a
// countConn.
func countedConn(t *testing.T, addr string) (*Conn, *countConn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countConn{Conn: nc}
	c := NewConn(addr, cc)
	t.Cleanup(func() { c.Close() })
	return c, cc
}

// A small request and its small response each cost one Read at the
// end that receives them: the header and the body arrive together.
func TestSmallFrameCostsOneRead(t *testing.T) {
	reply := bytes.Repeat([]byte("i"), 200) // a FileInfo with four addresses
	srv, sconns := countedServer(t, func(req wire.Message) wire.Message {
		return wire.Message{Body: reply}
	})
	c, cc := countedConn(t, srv.Addr())
	const calls = 100
	for i := range calls {
		req := (&wire.NameReq{Name: "meta/file-000123"}).Marshal()
		resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TOpen, Handle: uint64(i)}, Body: req})
		if err != nil || !bytes.Equal(resp.Body, reply) {
			t.Fatalf("call %d: %v", i, err)
		}
		resp.Release()
	}
	if got := len((<-sconns).take()); got != calls {
		t.Errorf("server: %d reads for %d request frames, want one each", got, calls)
	}
	if got := len(cc.take()); got != calls {
		t.Errorf("client: %d reads for %d response frames, want one each", got, calls)
	}
}

// Eight small frames written together are parsed out of the reader's
// buffer: one Read, two if the segment boundary falls inside a frame.
func TestFramesSentTogetherShareReads(t *testing.T) {
	srv, sconns := countedServer(t, func(req wire.Message) wire.Message {
		return wire.Message{Header: wire.Header{Handle: req.Handle + 1}}
	})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	const frames = 8
	var batch bytes.Buffer
	for i := range frames {
		wire.WriteMessage(&batch, wire.Message{
			Header: wire.Header{Type: wire.TPing, Handle: uint64(10 * i), Tag: uint32(i + 1)},
			Body:   bytes.Repeat([]byte{byte(i)}, 20),
		})
	}
	if _, err := nc.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for range frames {
		resp, err := wire.ReadMessage(nc)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Handle != uint64(10*(resp.Tag-1))+1 || seen[resp.Tag] {
			t.Fatalf("response %+v does not answer a request of the batch once", resp.Header)
		}
		seen[resp.Tag] = true
	}
	if got := len((<-sconns).take()); got > 2 {
		t.Fatalf("server: %d reads for %d frames sent in one write, want at most 2", got, frames)
	}
}

// throughBuffer returns how many body bytes of one frame went through
// the frame reader's buffer: what its reads brought in, less the header
// and the bytes that landed straight in the array ending at dst.
func throughBuffer(reads []readRec, dst *byte) (total, copied int) {
	for _, r := range reads {
		total += r.n
		if r.end != dst {
			copied += r.n
		}
	}
	return total, copied - wire.HeaderSize
}

// A large body copies at most its buffered prefix, 484 bytes, through
// the reader's buffer and lands the rest directly: a 512 KiB TWrite in
// the server's pooled request body, a 512 KiB response in the call's
// Dest.
func TestLargeBodyBypassesBuffer(t *testing.T) {
	const n = 512 << 10
	const maxPrefix = 512 - wire.HeaderSize
	payload := bytes.Repeat([]byte("w"), n)
	var (
		mu      sync.Mutex
		bodyEnd *byte
	)
	srv, sconns := countedServer(t, func(req wire.Message) wire.Message {
		if req.Type == wire.TWrite {
			mu.Lock()
			bodyEnd = capEnd(req.Body)
			mu.Unlock()
			if !bytes.Equal(req.Body, payload) {
				return wire.Message{Header: wire.Header{Status: wire.StatusInvalid}}
			}
			return wire.Message{}
		}
		return wire.Message{Body: payload}
	})
	c, cc := countedConn(t, srv.Addr())

	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TWrite}, Body: payload}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	total, copied := throughBuffer((<-sconns).take(), bodyEnd)
	mu.Unlock()
	if total != wire.HeaderSize+n || copied > maxPrefix {
		t.Fatalf("TWrite: read %d bytes, %d of the body through the buffer; want %d and at most %d",
			total, copied, wire.HeaderSize+n, maxPrefix)
	}

	cc.take()
	v, arena := destVec(n, 4096)
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TRead}, Dest: v}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(arena, payload) {
		t.Fatal("the destination does not hold the response body")
	}
	total, copied = throughBuffer(cc.take(), capEnd(arena))
	if total != wire.HeaderSize+n || copied > maxPrefix {
		t.Fatalf("response into Dest: read %d bytes, %d of the body through the buffer; want %d and at most %d",
			total, copied, wire.HeaderSize+n, maxPrefix)
	}
}
