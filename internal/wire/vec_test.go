package wire

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
)

// writeLog records every Write it sees, as a fault-injecting or tracing
// connection wrapper would.
type writeLog struct {
	writes [][]byte
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// fixedStream is a BodyStream other than *Vec, like the sendfile one.
type fixedStream struct{ b []byte }

func (s fixedStream) Len() int { return len(s.b) }

func (s fixedStream) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(s.b)
	return int64(n), err
}

func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

// vecCases are frames on both sides of coalesceMax, with and without
// fixed fields in front of the vector.
func vecCases() map[string]Message {
	big := pattern(3*coalesceMax+17, 1)
	return map[string]Message{
		"small body":  {Header: Header{Type: TPing, Tag: 1}, Body: pattern(64, 2)},
		"large body":  {Header: Header{Type: TWriteList, Tag: 2}, Body: big},
		"no body":     {Header: Header{Type: TSync, Tag: 3}},
		"small vec":   {Header: Header{Type: TWrite, Tag: 4}, Body: pattern(8, 3), BodyStream: &Vec{N: 30, Pieces: [][]byte{big[:10], big[100:120]}}},
		"large vec":   {Header: Header{Type: TWrite, Tag: 5}, Body: pattern(8, 4), BodyStream: &Vec{N: len(big), Pieces: [][]byte{big[:5], big[5:coalesceMax], big[coalesceMax:]}}},
		"bare vec":    {Header: Header{Type: TWrite, Tag: 6}, BodyStream: &Vec{N: len(big), Pieces: [][]byte{big}}},
		"empty piece": {Header: Header{Type: TWrite, Tag: 7}, Body: pattern(8, 5), BodyStream: &Vec{N: 10, Pieces: [][]byte{nil, big[:10], {}}}},
	}
}

// wantBody is what a receiver must see: Body followed by the pieces.
func wantBody(m Message) []byte {
	out := append([]byte(nil), m.Body...)
	if v, ok := m.BodyStream.(*Vec); ok {
		for _, p := range v.Pieces {
			out = append(out, p...)
		}
	}
	return out
}

// A writer that is not a *net.TCPConn sees exactly one Write per frame,
// holding the same bytes a receiver decodes.
func TestWrappedWriterSeesOneWritePerFrame(t *testing.T) {
	for name, m := range vecCases() {
		var w writeLog
		if err := WriteMessage(&w, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.writes) != 1 {
			t.Fatalf("%s: %d writes for one frame, want 1", name, len(w.writes))
		}
		got, err := ReadMessage(bytes.NewReader(w.writes[0]))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.Type != m.Type || got.Tag != m.Tag || !bytes.Equal(got.Body, wantBody(m)) {
			t.Fatalf("%s: frame does not decode to the message sent", name)
		}
	}
}

// The same messages over a real TCP connection (the writev path for the
// large ones) arrive byte-identical, and a streamed body still follows
// its header.
func TestVectoredFramesOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cases := vecCases()
	streamed := pattern(2*coalesceMax, 9)
	cases["streamed"] = Message{Header: Header{Type: TRead.Response(), Tag: 8}, BodyStream: fixedStream{streamed}}

	type recv struct {
		m   Message
		err error
	}
	got := make(chan recv, len(cases)) // one result per case
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- recv{err: err}
			return
		}
		defer c.Close()
		for range cases {
			m, err := ReadMessage(c)
			got <- recv{m, err}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*net.TCPConn); !ok {
		t.Fatalf("dialed %T, want *net.TCPConn", c)
	}
	byTag := map[uint32][]byte{}
	for name, m := range cases {
		if err := WriteMessage(c, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		byTag[m.Tag] = wantBody(m)
	}
	byTag[8] = streamed
	for range cases {
		r := <-got
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !bytes.Equal(r.m.Body, byTag[r.m.Tag]) {
			t.Fatalf("tag %d: body differs after the TCP round trip", r.m.Tag)
		}
	}
}

// A frame that fits a frame reader's buffer, written to a
// *net.TCPConn, is assembled on the stack: a write acknowledgement, a
// bodiless frame, a small vector and a full 512 bytes take nothing
// from the pool, and arrive intact.
func TestSmallFramesOnTCPTakeNoPoolBuffer(t *testing.T) {
	c, srv := tcpPair(t)
	full := pattern(frameBufSize-HeaderSize, 6)
	msgs := []Message{
		{Header: Header{Type: TWrite.Response(), Tag: 1}, Body: (&WrittenResp{N: 512 << 10}).Marshal()},
		{Header: Header{Type: TSync, Tag: 2}},
		{Header: Header{Type: TWrite, Tag: 3}, Body: pattern(8, 7), BodyStream: &Vec{N: 20, Pieces: [][]byte{full[:10], full[10:20]}}},
		{Header: Header{Type: TPing, Tag: 4}, Body: full},
	}
	gets0, _ := BufStats()
	for _, m := range msgs {
		if err := WriteMessage(c, m); err != nil {
			t.Fatal(err)
		}
	}
	if gets, _ := BufStats(); gets != gets0 {
		t.Fatalf("%d small frames took %d pool buffers, want 0", len(msgs), gets-gets0)
	}
	for _, m := range msgs {
		got, err := ReadMessage(srv)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != m.Type || got.Tag != m.Tag || !bytes.Equal(got.Body, wantBody(m)) {
			t.Fatalf("tag %d: frame does not decode to the message sent", m.Tag)
		}
	}
}

// A vector that promises a length its pieces do not hold is refused
// before the header can promise it to the peer.
func TestVecLengthMismatchWritesNothing(t *testing.T) {
	data := pattern(2*coalesceMax, 0)
	for _, n := range []int{len(data) - 1, len(data) + 1} {
		m := Message{Header: Header{Type: TWrite}, Body: pattern(8, 1), BodyStream: &Vec{N: n, Pieces: [][]byte{data[:100], data[100:]}}}
		var w writeLog
		err := WriteMessage(&w, m)
		if err == nil || !strings.Contains(err.Error(), "vector promises") {
			t.Fatalf("N=%d: err = %v, want length mismatch", n, err)
		}
		if len(w.writes) != 0 {
			t.Fatalf("N=%d: %d writes reached the writer", n, len(w.writes))
		}
	}

	// Same on the writev path: the peer reads EOF, not a header.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	seen := make(chan int, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			seen <- -1
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		seen <- len(b)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	bad := Message{Header: Header{Type: TWrite}, BodyStream: &Vec{N: len(data) + 1, Pieces: [][]byte{data}}}
	if err := WriteMessage(c, bad); err == nil {
		t.Fatal("mismatched vector accepted on TCP")
	}
	c.Close()
	if n := <-seen; n != 0 {
		t.Fatalf("peer received %d bytes of a refused frame", n)
	}
}

// A vector is only read: replaying the same message must put the same
// bytes on the wire (the per-tag re-drive of DESIGN.md §9 relies on it).
func TestVecSurvivesReplay(t *testing.T) {
	m := vecCases()["large vec"]
	var first, second writeLog
	if err := WriteMessage(&first, m); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, c)
			c.Close()
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := WriteMessage(c, m); err != nil { // writev consumes its own vector, not ours
		t.Fatal(err)
	}
	if err := WriteMessage(&second, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.writes[0], second.writes[0]) {
		t.Fatal("replayed frame differs from the first")
	}
}

// A torn frame hands its body buffer back: the pool stays balanced.
func TestReadMessageTornBodyReleasesBuffer(t *testing.T) {
	var w writeLog
	if err := WriteMessage(&w, Message{Header: Header{Type: TWrite}, Body: pattern(2048, 0)}); err != nil {
		t.Fatal(err)
	}
	gets0, puts0 := BufStats()
	if _, err := ReadMessage(bytes.NewReader(w.writes[0][:HeaderSize+1000])); err == nil {
		t.Fatal("torn frame decoded")
	}
	gets, puts := BufStats()
	if gets-gets0 != puts-puts0 {
		t.Fatalf("torn frame: %d gets vs %d puts", gets-gets0, puts-puts0)
	}
}

// TestMsgTypeString also pins the reserved blanks: 11 and 12 (the
// retired strided family) and 24 print as bare numbers, their
// neighbours keep their wire values, and the propose stays at 26.
func TestMsgTypeString(t *testing.T) {
	for typ, want := range map[MsgType]string{
		TWrite:                           "write",
		TWrite.Response():                "write-resp",
		TInvalid:                         "invalid",
		MsgType(11):                      "type(11)",
		MsgType(12).Response():           "type(32780)",
		MsgType(13):                      "truncate",
		MsgType(23):                      "metaappend",
		MsgType(24):                      "type(24)",
		MsgType(24).Response():           "type(32792)",
		MsgType(25):                      "metafetch",
		MsgType(26):                      "metapropose",
		TMetaPropose.Response():          "metapropose-resp",
		TMetaPropose + 1:                 "type(27)",
		(TMetaPropose + 1) | responseBit: "type(32795)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("MsgType(%d).String() = %q, want %q", uint16(typ), got, want)
		}
	}
}
