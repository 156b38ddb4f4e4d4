package pvfsnet

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"

	"pvfs/internal/wire"
)

// countingConn is a connection wrapper in the shape of faultnet's and
// the bench tracer's: embedding net.Conn hides the TCP connection's
// writev, so the transport must fall back to one coalesced Write.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// vecRequest builds a vectored request of n payload bytes cut into
// uneven pieces, behind an 8-byte fixed-field body.
func vecRequest(i, n int) (wire.Message, []byte) {
	payload := make([]byte, n)
	for k := range payload {
		payload[k] = byte(i*31 + k)
	}
	fixed := []byte{0, 0, 0, 0, 0, 0, 0, byte(i)}
	var pieces [][]byte
	for rest := payload; len(rest) > 0; {
		take := min(len(rest), 1000+i)
		pieces = append(pieces, rest[:take])
		rest = rest[take:]
	}
	msg := wire.Message{
		Header:     wire.Header{Type: wire.TPing, Handle: uint64(i)},
		Body:       fixed,
		BodyStream: &wire.Vec{N: n, Pieces: pieces},
	}
	return msg, append(append([]byte(nil), fixed...), payload...)
}

// Vectored requests pipelined over a wrapped connection reach the
// wrapper as exactly one Write per frame, small or large, and the
// daemon sees fixed fields and payload as one contiguous body. The same
// requests over the bare TCP connection (one writev each) echo
// identically.
func TestVectoredRequestsOneWritePerFrame(t *testing.T) {
	srv := startEcho(t)
	sizes := []int{1, 700, 4096, 70_000, 512<<10 + 1}
	for _, wrapped := range []bool{true, false} {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		cc := &countingConn{Conn: nc}
		var c *Conn
		if wrapped {
			c = NewConn(srv.Addr(), cc)
		} else {
			c = NewConn(srv.Addr(), nc)
		}
		pend := make([]*Pending, len(sizes))
		want := make([][]byte, len(sizes))
		for i, n := range sizes {
			var msg wire.Message
			msg, want[i] = vecRequest(i, n)
			if pend[i], err = c.CallAsync(msg); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range pend {
			resp, err := p.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp.Body, want[i]) {
				t.Fatalf("wrapped=%v: request %d (%d bytes) echoed a different body", wrapped, i, sizes[i])
			}
			resp.Release()
		}
		if got := cc.writes.Load(); wrapped && got != int64(len(sizes)) {
			t.Fatalf("wrapped connection saw %d writes for %d frames", got, len(sizes))
		}
		c.Close()
	}
}
