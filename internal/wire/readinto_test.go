package wire

import (
	"bytes"
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// guardedPieces cuts pieces of the given sizes from one backing array,
// each followed by a guard byte, and returns the pieces and a check
// that every guard is intact.
func guardedPieces(sizes []int) ([][]byte, func() bool) {
	total := 0
	for _, n := range sizes {
		total += n + 1
	}
	backing := bytes.Repeat([]byte{0xA5}, total)
	pieces := make([][]byte, len(sizes))
	var guards []int
	at := 0
	for i, n := range sizes {
		pieces[i] = backing[at : at+n : at+n]
		at += n
		guards = append(guards, at)
		at++
	}
	return pieces, func() bool {
		for _, g := range guards {
			if backing[g] != 0xA5 {
				return false
			}
		}
		return true
	}
}

// ReadInto on a TCP socket scatters by readv: more pieces than one call
// takes (IOV_MAX), empty pieces among them, and a sender that trickles
// the bytes so reads come back short and the reader parks on an empty
// socket between them. Every byte lands in its piece, none outside.
func TestReadIntoTCPScattersExactly(t *testing.T) {
	client, server := tcpPair(t)
	sizes := make([]int, 2500)
	for i := range sizes {
		sizes[i] = (i * 37) % 41 // 0..40 bytes
	}
	pieces, guardsIntact := guardedPieces(sizes)
	body := pattern(len(bytes.Join(pieces, nil)), 3)
	go func() {
		for b := body; len(b) > 0; {
			k := min(len(b), 7919)
			server.Write(b[:k])
			b = b[k:]
			time.Sleep(time.Millisecond)
		}
	}()
	n, err := ReadInto(client, pieces)
	if err != nil || n != len(body) {
		t.Fatalf("ReadInto = %d, %v; want %d bytes", n, err, len(body))
	}
	if !bytes.Equal(bytes.Join(pieces, nil), body) {
		t.Fatal("pieces do not hold the bytes sent, in order")
	}
	if !guardsIntact() {
		t.Fatal("ReadInto wrote outside its pieces")
	}
}

// A read deadline wakes a ReadInto parked on a stalled peer: it returns
// the bytes it placed and an error that is os.ErrDeadlineExceeded.
func TestReadIntoTCPDeadlineWakes(t *testing.T) {
	client, server := tcpPair(t)
	pieces, guardsIntact := guardedPieces([]int{1000, 3000, 4000})
	server.Write(pattern(1500, 1))
	time.AfterFunc(20*time.Millisecond, func() { client.SetReadDeadline(time.Unix(1, 0)) })
	start := time.Now()
	n, err := ReadInto(client, pieces)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want os.ErrDeadlineExceeded", err)
	}
	if n != 1500 {
		t.Fatalf("read %d bytes before the deadline, want the 1500 sent", n)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the deadline woke the read after %v", took)
	}
	if !guardsIntact() {
		t.Fatal("ReadInto wrote outside its pieces")
	}
}

// TestReadIntoTCPAllocsNothing pins the scatter path's steady state: a
// 16-piece ReadInto of a body too large for the read-ahead lands by
// readv over a loopback TCP connection and allocates nothing once the
// reader is warm.
func TestReadIntoTCPAllocsNothing(t *testing.T) {
	client, server := tcpPair(t)
	const runs, pieceLen = 50, 4 << 10
	pieces := make([][]byte, 16)
	for i := range pieces {
		pieces[i] = make([]byte, pieceLen)
	}
	body := bytes.Repeat([]byte{0x5A}, len(pieces)*pieceLen)
	sent := make(chan error, 1)
	go func() {
		// AllocsPerRun calls the function once more to warm up.
		for i := 0; i < runs+1; i++ {
			if _, err := server.Write(body); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	fr := NewFrameReader(client)
	var err error
	allocs := testing.AllocsPerRun(runs, func() {
		if _, rerr := fr.ReadInto(pieces); rerr != nil && err == nil {
			err = rerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i, p := range pieces {
		if !bytes.Equal(p, body[:pieceLen]) {
			t.Fatalf("piece %d holds other bytes than were sent", i)
		}
	}
	if allocs != 0 {
		t.Fatalf("a 16-piece ReadInto made %.1f allocations, want 0", allocs)
	}
}
