package wire

import (
	"bytes"
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
