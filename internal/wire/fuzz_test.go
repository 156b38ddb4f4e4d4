package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/striping"
)

// Native fuzz targets for the decoders that face the network. Run as
// regression tests on the seed corpus under `go test`; extend with
// `go test -fuzz FuzzDecodeRegions ./internal/wire`.

func FuzzDecodeRegions(f *testing.F) {
	good, _ := EncodeRegions(ioseg.List{{Offset: 0, Length: 10}, {Offset: 100, Length: 5}})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 65}) // count over the limit
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, rest, err := DecodeRegions(data)
		if err != nil {
			return
		}
		// Decoded regions must be valid and re-encodable.
		if err := l.Validate(); err != nil {
			t.Fatalf("decoder produced invalid regions: %v", err)
		}
		b, err := EncodeRegions(l)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		roundTrip, rest2, err := DecodeRegions(b)
		if err != nil || len(rest2) != 0 || !roundTrip.Equal(l) {
			t.Fatalf("round trip diverged")
		}
		_ = rest
	})
}

func FuzzMessageRoundTrip(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, Message{Header: Header{Type: TReadList, Handle: 5}, Body: []byte("abc")})
	f.Add(buf.Bytes())
	f.Add([]byte("not a message"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed message must re-serialize to bytes
		// that parse identically.
		var out bytes.Buffer
		if err := WriteMessage(&out, m); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		m2, err := ReadMessage(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if m2.Type != m.Type || m2.Handle != m.Handle || !bytes.Equal(m2.Body, m.Body) {
			t.Fatal("message round trip diverged")
		}
	})
}

func FuzzDatatypeReq(f *testing.F) {
	enc, err := datatype.Encode(datatype.Vector(1000, 8, 32, datatype.Bytes(1)))
	if err != nil {
		f.Fatal(err)
	}
	read := ReadDatatypeReq{
		Base: 64, Count: 3, DataPos: 128, Want: 256,
		Striping: striping.Config{PCount: 4, StripeSize: 4096},
		RelIndex: 2, TypeEnc: enc,
	}
	f.Add(read.Marshal())
	write := WriteDatatypeReq{ReadDatatypeReq: read, Data: make([]byte, 256)}
	f.Add(write.Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r ReadDatatypeReq
		if r.Unmarshal(data) == nil {
			// Accepted requests have sane shapes and re-marshal to a
			// decodable form.
			if r.Base < 0 || r.Count < 0 || r.DataPos < 0 || r.Want < 0 ||
				r.Want > MaxBodyLen || len(r.TypeEnc) > MaxTypeEncLen {
				t.Fatalf("accepted out-of-range request %+v", r)
			}
			var again ReadDatatypeReq
			if err := again.Unmarshal(r.Marshal()); err != nil {
				t.Fatalf("re-marshalled request does not parse: %v", err)
			}
		}
		var w WriteDatatypeReq
		if w.Unmarshal(data) == nil {
			if int64(len(w.Data)) != w.Want {
				t.Fatalf("accepted write with %d payload bytes, want %d", len(w.Data), w.Want)
			}
		}
	})
}

// FuzzReadMessage aims arbitrary bytes — truncated headers, torn
// bodies, corrupt magic, oversized declared lengths — at the frame
// decoder that faces the network (faultnet produces exactly these
// shapes). Invariants: no panic, declared and actual body lengths
// agree on success, oversized frames are rejected before allocation,
// and buffer-pool ownership stays sound: a failed parse hands back the
// one body buffer it took (it owns it outright — nothing else saw it),
// a successful one hands back nothing, and the pool never gives one
// backing array to two owners afterwards. The receive-into-caller-
// memory path is held to the same frames: ReadHeader and then ReadInto
// over pieces cut at the sizes in cuts yield ReadMessage's body, or
// both fail, and no byte lands outside a piece.
func FuzzReadMessage(f *testing.F) {
	var good bytes.Buffer
	_ = WriteMessage(&good, Message{Header: Header{Type: TWriteList, Handle: 9, Tag: 7}, Body: []byte("payload")})
	f.Add(good.Bytes(), []byte{3, 0, 2})
	f.Add(good.Bytes()[:HeaderSize-3], []byte{})  // torn header
	f.Add(good.Bytes()[:HeaderSize+2], []byte{1}) // torn body
	f.Add([]byte{}, []byte{})
	huge := append([]byte(nil), good.Bytes()...)
	huge[20], huge[21], huge[22], huge[23] = 0xFF, 0xFF, 0xFF, 0xFF // BodyLen past MaxBodyLen
	f.Add(huge, []byte{7})
	corrupt := append([]byte(nil), good.Bytes()...)
	corrupt[0] ^= 0x40 // bad magic
	f.Add(corrupt, []byte{1, 1})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		checkReadInto(t, data, cuts)
		gets0, puts0 := BufStats()
		m, err := ReadMessage(bytes.NewReader(data))
		gets1, puts1 := BufStats()
		if err != nil {
			// A torn body took at most the one body buffer and returned
			// it, so faulty wires leave BufStats balanced.
			if gets1-gets0 > 1 || gets1-gets0 != puts1-puts0 {
				t.Fatalf("failed parse: %d gets, %d puts", gets1-gets0, puts1-puts0)
			}
			return
		}
		if puts1 != puts0 {
			t.Fatalf("ReadMessage returned %d buffers to the pool mid-parse", puts1-puts0)
		}
		if int(m.BodyLen) != len(m.Body) {
			t.Fatalf("declared body %d bytes, delivered %d", m.BodyLen, len(m.Body))
		}
		if len(m.Body) > MaxBodyLen {
			t.Fatalf("accepted %d-byte body past MaxBodyLen", len(m.Body))
		}
		if len(data) < HeaderSize+len(m.Body) {
			t.Fatalf("parsed a %d-byte body from %d input bytes", len(m.Body), len(data))
		}
		if !bytes.Equal(m.Body, data[HeaderSize:HeaderSize+len(m.Body)]) {
			t.Fatal("delivered body diverges from the wire bytes")
		}
		// Recycling the consumed body must hand out intact, unaliased
		// buffers afterwards.
		n := len(m.Body)
		m.Release()
		if n > 0 {
			b1, b2 := GetBuf(n), GetBuf(n)
			if len(b1) != n || len(b2) != n {
				t.Fatalf("pool poisoned: GetBuf(%d) returned %d/%d bytes", n, len(b1), len(b2))
			}
			if &b1[0] == &b2[0] {
				t.Fatal("pool poisoned: one backing array handed to two owners")
			}
			PutBuf(b1)
			PutBuf(b2)
		}
	})
}

// guard fills the byte after every piece in checkReadInto.
const guard = 0xA5

// checkReadInto reads the frame in data with ReadHeader and ReadInto
// over pieces cut at the sizes in cuts (the last piece takes the rest),
// each followed by a guard byte in one backing array, and holds the
// result to ReadMessage's.
func checkReadInto(t *testing.T, data, cuts []byte) {
	t.Helper()
	want, merr := ReadMessage(bytes.NewReader(data))
	defer want.Release()
	r := bytes.NewReader(data)
	h, err := ReadHeader(r)
	if err != nil {
		if merr == nil {
			t.Fatalf("ReadHeader failed (%v) where ReadMessage parsed", err)
		}
		return
	}
	n := int(h.BodyLen)
	if n > len(data) {
		if merr == nil {
			t.Fatalf("ReadMessage parsed a %d-byte body from %d bytes", n, len(data))
		}
		return // cannot succeed; not worth a body-sized allocation
	}
	backing := bytes.Repeat([]byte{guard}, n+len(cuts)+1)
	var pieces [][]byte
	at, left := 0, n
	for i := 0; i <= len(cuts) && left > 0; i++ {
		k := left
		if i < len(cuts) {
			k = min(int(cuts[i]), left)
		}
		pieces = append(pieces, backing[at:at+k:at+k])
		at, left = at+k+1, left-k
	}
	got, err := ReadInto(r, pieces)
	if (err == nil) != (merr == nil) {
		t.Fatalf("ReadInto err = %v, ReadMessage err = %v", err, merr)
	}
	if err == nil && got != n {
		t.Fatalf("ReadInto read %d of %d bytes without an error", got, n)
	}
	var body []byte
	at = 0
	for _, p := range pieces {
		body = append(body, p...)
		at += len(p)
		if backing[at] != guard {
			t.Fatalf("ReadInto wrote past a piece at backing byte %d", at)
		}
		at++
	}
	if err == nil && !bytes.Equal(body, want.Body) {
		t.Fatal("ReadInto delivered other bytes than ReadMessage")
	}
}

// FuzzFrameReader holds a connection's buffered FrameReader to the
// unbuffered form over an arbitrary byte stream delivered in arbitrary
// read sizes: it yields the same frames and the same errors as
// successive ReadMessage calls on the same bytes, whichever way each
// body is taken — ReadBody, ReadInto over cut pieces, or Discard — it
// never panics, writes no byte outside a piece, and leaves BufStats
// balanced once the bodies are released.
func FuzzFrameReader(f *testing.F) {
	var stream bytes.Buffer
	for i, n := range []int{0, 7, 490, 3} {
		_ = WriteMessage(&stream, Message{Header: Header{Type: TOpen, Handle: uint64(i), Tag: uint32(i + 1)}, Body: pattern(n, byte(i))})
	}
	good := stream.Bytes()
	f.Add(good, []byte{}, []byte{0})
	f.Add(good, []byte{1, 200, 27, 3}, []byte{0, 2, 1})
	f.Add(good[:len(good)-2], []byte{63}, []byte{1, 1, 5}) // torn last body
	f.Add(good[:HeaderSize+3], []byte{2}, []byte{2})       // torn first header
	corrupt := append([]byte(nil), good...)
	corrupt[HeaderSize+1] ^= 0x40 // the second frame's magic
	f.Add(corrupt, []byte{5, 9}, []byte{1})
	f.Fuzz(func(t *testing.T, data, sizes, modes []byte) {
		gets0, puts0 := BufStats()
		type frame struct {
			h    Header
			body []byte
			err  error
		}
		var want []frame
		unbuf := &chunkReader{data: data, sizes: sizes}
		for {
			m, err := ReadMessage(unbuf)
			want = append(want, frame{m.Header, bytes.Clone(m.Body), err})
			m.Release()
			if err != nil {
				break
			}
		}

		fr := NewFrameReader(&chunkReader{data: data, sizes: sizes})
		for i, w := range want {
			h, err := fr.ReadHeader()
			if err != nil {
				if w.err == nil || err.Error() != w.err.Error() {
					t.Fatalf("frame %d: header error %v, unbuffered %v", i, err, w.err)
				}
				break
			}
			if w.err == nil && h != w.h {
				t.Fatalf("frame %d: header %+v, unbuffered %+v", i, h, w.h)
			}
			mode := byte(0)
			if len(modes) > 0 {
				mode = modes[i%len(modes)]
			}
			if int(h.BodyLen) > len(data) {
				mode = 2 // cannot arrive; not worth a body-sized buffer
			}
			switch mode % 3 {
			case 0:
				m, err := fr.ReadBody(h)
				if (err == nil) != (w.err == nil) || err != nil && err.Error() != w.err.Error() {
					t.Fatalf("frame %d: ReadBody err %v, unbuffered %v", i, err, w.err)
				}
				if err == nil && !bytes.Equal(m.Body, w.body) {
					t.Fatalf("frame %d: ReadBody delivered other bytes", i)
				}
				m.Release()
			case 1:
				pieces, guardsIntact := cutPieces(int(h.BodyLen), mode)
				n, err := fr.ReadInto(pieces)
				if (err == nil) != (w.err == nil) || err != nil && !errors.Is(err, errors.Unwrap(w.err)) {
					t.Fatalf("frame %d: ReadInto err %v, unbuffered %v", i, err, w.err)
				}
				if err == nil && (n != len(w.body) || !bytes.Equal(bytes.Join(pieces, nil), w.body)) {
					t.Fatalf("frame %d: ReadInto placed %d bytes, other than the body", i, n)
				}
				if !guardsIntact() {
					t.Fatalf("frame %d: ReadInto wrote outside its pieces", i)
				}
			default:
				err := fr.Discard(int64(h.BodyLen))
				if (err == nil) != (w.err == nil) || err != nil && !errors.Is(err, errors.Unwrap(w.err)) {
					t.Fatalf("frame %d: Discard err %v, unbuffered %v", i, err, w.err)
				}
			}
			if w.err != nil {
				break
			}
		}
		if gets, puts := BufStats(); gets-gets0 != puts-puts0 {
			t.Fatalf("pool unbalanced: %d gets, %d puts", gets-gets0, puts-puts0)
		}
	})
}

// chunkReader delivers data in reads of the sizes in sizes, cycled
// (each mod 64, plus one; no sizes: whatever is asked); the read that
// reaches the end of data returns io.EOF with its bytes.
type chunkReader struct {
	data, sizes []byte
	k           int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.sizes) > 0 {
		n = min(n, int(c.sizes[c.k%len(c.sizes)])%64+1)
		c.k++
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	if len(c.data) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// cutPieces cuts n bytes into pieces from one backing array: an empty
// piece, then up to mode%61+1 bytes, over and over, each followed by a
// guard byte. It returns the pieces and a check that every guard holds.
func cutPieces(n int, mode byte) ([][]byte, func() bool) {
	k := int(mode)%61 + 1
	backing := bytes.Repeat([]byte{guard}, n+2*(n/k+1)+1)
	var pieces [][]byte
	at := 0
	for left := n; left > 0; {
		m := min(k, left)
		pieces = append(pieces, backing[at:at:at], backing[at+1:at+1+m:at+1+m])
		at, left = at+m+2, left-m
	}
	return pieces, func() bool {
		at := 0
		for _, p := range pieces {
			at += len(p)
			if backing[at] != guard {
				return false
			}
			at++
		}
		return true
	}
}
