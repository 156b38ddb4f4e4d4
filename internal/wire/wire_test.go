package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pvfs/internal/ioseg"
	"pvfs/internal/striping"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Type: TReadList, Status: StatusOK, Handle: 0xdeadbeef, BodyLen: 123}
	buf := make([]byte, HeaderSize)
	putHeader(buf, h)
	got, err := parseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestHeaderBadMagic(t *testing.T) {
	buf := make([]byte, HeaderSize)
	putHeader(buf, Header{Type: TRead})
	buf[0] = 'X'
	if _, err := parseHeader(buf); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestHeaderBadVersion(t *testing.T) {
	buf := make([]byte, HeaderSize)
	putHeader(buf, Header{Type: TRead})
	buf[5] = 99
	if _, err := parseHeader(buf); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m := Message{Header: Header{Type: TWrite, Handle: 7}, Body: []byte("hello body")}
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TWrite || got.Handle != 7 || !bytes.Equal(got.Body, m.Body) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestMessageEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Header: Header{Type: TPing}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Body) != 0 || got.Type != TPing {
		t.Fatalf("got %+v", got)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Header: Header{Type: TRead}, Body: make([]byte, 50)}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:HeaderSize+10]
	if _, err := ReadMessage(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated message accepted")
	}
	if _, err := ReadMessage(bytes.NewReader(trunc[:5])); err != io.ErrUnexpectedEOF {
		t.Fatalf("short header err = %v", err)
	}
}

func TestBodyTooLarge(t *testing.T) {
	buf := make([]byte, HeaderSize)
	putHeader(buf, Header{Type: TRead, BodyLen: MaxBodyLen + 1})
	if _, err := parseHeader(buf); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestMsgTypeResponseBit(t *testing.T) {
	if !TRead.Response().IsResponse() {
		t.Fatal("response bit not set")
	}
	if TRead.Response().Base() != TRead {
		t.Fatal("Base does not strip response bit")
	}
	if TRead.IsResponse() {
		t.Fatal("request type claims to be response")
	}
	if TReadList.Response().String() != "readlist-resp" {
		t.Fatalf("String = %q", TReadList.Response().String())
	}
}

func TestStatusErr(t *testing.T) {
	if StatusOK.Err() != nil {
		t.Fatal("StatusOK.Err() != nil")
	}
	err := StatusNotFound.Err()
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusNotFound {
		t.Fatalf("err = %v", err)
	}
}

func TestEncodeDecodeRegions(t *testing.T) {
	l := ioseg.List{{Offset: 0, Length: 10}, {Offset: 1 << 40, Length: 16384}}
	b, err := EncodeRegions(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != TrailingDataSize(2) {
		t.Fatalf("trailing size = %d, want %d", len(b), TrailingDataSize(2))
	}
	got, rest, err := DecodeRegions(append(b, 0xFF, 0xEE))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(l) {
		t.Fatalf("regions = %v, want %v", got, l)
	}
	if !bytes.Equal(rest, []byte{0xFF, 0xEE}) {
		t.Fatalf("rest = % x", rest)
	}
}

func TestEncodeRegionsLimit(t *testing.T) {
	l := make(ioseg.List, MaxRegionsPerRequest+1)
	for i := range l {
		l[i] = ioseg.Segment{Offset: int64(i) * 10, Length: 5}
	}
	if _, err := EncodeRegions(l); !errors.Is(err, ErrTooManyRegions) {
		t.Fatalf("err = %v, want ErrTooManyRegions", err)
	}
	if _, err := EncodeRegions(l[:MaxRegionsPerRequest]); err != nil {
		t.Fatalf("exactly 64 regions rejected: %v", err)
	}
}

func TestDecodeRegionsRejectsGarbage(t *testing.T) {
	// Count claims 64 regions, body has none.
	e := encoder{}
	e.u32(64)
	if _, _, err := DecodeRegions(e.buf); err == nil {
		t.Fatal("short trailing data accepted")
	}
	// Count over the limit.
	e = encoder{}
	e.u32(MaxRegionsPerRequest + 1)
	if _, _, err := DecodeRegions(e.buf); !errors.Is(err, ErrTooManyRegions) {
		t.Fatalf("err = %v", err)
	}
	// Negative length region.
	e = encoder{}
	e.u32(1)
	e.i64(0)
	e.i64(-5)
	if _, _, err := DecodeRegions(e.buf); err == nil {
		t.Fatal("negative region accepted")
	}
}

func TestFrameBudget(t *testing.T) {
	// The paper's derivation: the descriptors for 64 regions plus the
	// request header fit one Ethernet frame.
	if got := FrameBudget(); got != MaxRegionsPerRequest {
		t.Fatalf("FrameBudget = %d, want %d", got, MaxRegionsPerRequest)
	}
	if sz := HeaderSize + TrailingDataSize(MaxRegionsPerRequest); sz > EthernetMSS {
		t.Fatalf("64-region request occupies %d bytes > one MSS (%d)", sz, EthernetMSS)
	}
}

func TestCreateReqRoundTrip(t *testing.T) {
	m := CreateReq{Name: "data/checkpoint.bin", Striping: striping.Config{Base: 2, PCount: 8, StripeSize: 16384}}
	var got CreateReq
	if err := got.Unmarshal(m.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.Striping != m.Striping {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestFileInfoRoundTrip(t *testing.T) {
	m := FileInfo{
		Handle:   42,
		Size:     1 << 30,
		Striping: striping.Config{PCount: 8, StripeSize: 16384},
		IODAddrs: []string{"127.0.0.1:7001", "127.0.0.1:7002"},
	}
	var got FileInfo
	if err := got.Unmarshal(m.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got.Handle != m.Handle || got.Size != m.Size || len(got.IODAddrs) != 2 ||
		got.IODAddrs[1] != "127.0.0.1:7002" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestListReqRoundTrip(t *testing.T) {
	m := ListReq{
		Regions: ioseg.List{{Offset: 100, Length: 3}, {Offset: 200, Length: 2}},
		Data:    []byte{1, 2, 3, 4, 5},
	}
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got ListReq
	if err := got.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if !got.Regions.Equal(m.Regions) || !bytes.Equal(got.Data, m.Data) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestSmallBodiesRoundTrip(t *testing.T) {
	var w WrittenResp
	if err := w.Unmarshal((&WrittenResp{N: 77}).Marshal()); err != nil || w.N != 77 {
		t.Fatalf("WrittenResp: %v %+v", nil, w)
	}
	var s SizeResp
	if err := s.Unmarshal((&SizeResp{Size: 123456}).Marshal()); err != nil || s.Size != 123456 {
		t.Fatalf("SizeResp: %+v", s)
	}
	var tr TruncateReq
	if err := tr.Unmarshal((&TruncateReq{Size: 99}).Marshal()); err != nil || tr.Size != 99 {
		t.Fatalf("TruncateReq: %+v", tr)
	}
	var nr NameReq
	if err := nr.Unmarshal((&NameReq{Name: "x"}).Marshal()); err != nil || nr.Name != "x" {
		t.Fatalf("NameReq: %+v", nr)
	}
	var ld ListDirResp
	if err := ld.Unmarshal((&ListDirResp{Names: []string{"a", "b"}}).Marshal()); err != nil || len(ld.Names) != 2 {
		t.Fatalf("ListDirResp: %+v", ld)
	}
	var ss SetSizeReq
	if err := ss.Unmarshal((&SetSizeReq{Handle: 5, Size: 10}).Marshal()); err != nil || ss.Size != 10 {
		t.Fatalf("SetSizeReq: %+v", ss)
	}
	var wr WriteReq
	if err := wr.Unmarshal((&WriteReq{Offset: 3, Data: []byte{9}}).Marshal()); err != nil || wr.Offset != 3 || len(wr.Data) != 1 {
		t.Fatalf("WriteReq: %+v", wr)
	}
	var rr ReadReq
	if err := rr.Unmarshal((&ReadReq{Offset: 1, Length: 2}).Marshal()); err != nil || rr.Length != 2 {
		t.Fatalf("ReadReq: %+v", rr)
	}
}

func TestServerStatsRoundTripAndAdd(t *testing.T) {
	a := ServerStats{Requests: 1, Regions: 2, BytesRead: 3, BytesWritten: 4, ListRequests: 5, TrailingBytes: 6}
	var got ServerStats
	if err := got.Unmarshal(a.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip: %+v", got)
	}
	got.Add(a)
	if got.Requests != 2 || got.TrailingBytes != 12 {
		t.Fatalf("Add: %+v", got)
	}
}

// TestServerStatsGoldenLayout pins the ServerStats wire layout: field i
// of the struct set to i+1 marshals to these 208 bytes, the counters in
// declaration order as big-endian 64-bit integers.
func TestServerStatsGoldenLayout(t *testing.T) {
	const golden = "0000000000000001000000000000000200000000000000030000000000000004" +
		"0000000000000005000000000000000600000000000000070000000000000008" +
		"0000000000000009000000000000000a000000000000000b000000000000000c" +
		"000000000000000d000000000000000e000000000000000f0000000000000010" +
		"0000000000000011000000000000001200000000000000130000000000000014" +
		"0000000000000015000000000000001600000000000000170000000000000018" +
		"0000000000000019000000000000001a"
	var st ServerStats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	b := st.Marshal()
	if got := hex.EncodeToString(b); got != golden {
		t.Fatalf("ServerStats layout changed:\n got %s\nwant %s", got, golden)
	}
	var back ServerStats
	if err := back.Unmarshal(b); err != nil || back != st {
		t.Fatalf("Unmarshal: %+v, %v", back, err)
	}
	back.Add(st)
	for i := 0; i < v.NumField(); i++ {
		if got := reflect.ValueOf(back).Field(i).Int(); got != 2*int64(i+1) {
			t.Fatalf("Add: field %s = %d, want %d", v.Type().Field(i).Name, got, 2*(i+1))
		}
	}
}

func TestUnmarshalShortBodies(t *testing.T) {
	// Every Unmarshal must reject truncated bodies without panicking.
	var (
		cr CreateReq
		fi FileInfo
		st ServerStats
		mv MetaProposeVerdict
	)
	bodies := [][]byte{nil, {1}, {0, 0, 0}, bytes.Repeat([]byte{0xFF}, 7)}
	for _, b := range bodies {
		if err := cr.Unmarshal(b); err == nil && len(b) < 4 {
			t.Errorf("CreateReq accepted %d bytes", len(b))
		}
		if err := mv.Unmarshal(b); err == nil {
			t.Errorf("MetaProposeVerdict accepted %d bytes", len(b))
		}
		_ = fi.Unmarshal(b)
		_ = st.Unmarshal(b)
	}
	// A vote request cut anywhere, the Pre flag included, is refused.
	vote := MetaVoteReq{Term: 2, Candidate: 1, LastIndex: 9, LastTerm: 1, Pre: true}
	body := vote.Marshal()
	for n := range len(body) {
		if err := new(MetaVoteReq).Unmarshal(body[:n]); err == nil {
			t.Errorf("MetaVoteReq accepted %d of %d bytes", n, len(body))
		}
	}
}

// Property: random region lists round trip through the trailing-data
// codec byte for byte.
func TestRegionsRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw) % (MaxRegionsPerRequest + 1)
		l := make(ioseg.List, n)
		for i := range l {
			l[i] = ioseg.Segment{Offset: int64(r.Uint32()), Length: int64(r.Intn(1 << 20))}
		}
		b, err := EncodeRegions(l)
		if err != nil {
			return false
		}
		got, rest, err := DecodeRegions(b)
		if err != nil || len(rest) != 0 {
			return false
		}
		return got.Equal(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz-style robustness: random bytes never panic the decoders.
func TestDecodeRandomBytesNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		b := make([]byte, r.Intn(200))
		r.Read(b)
		_, _, _ = DecodeRegions(b)
		var fi FileInfo
		_ = fi.Unmarshal(b)
		var lr ListReq
		_ = lr.Unmarshal(b)
	}
}

func BenchmarkEncodeRegions64(b *testing.B) {
	l := make(ioseg.List, 64)
	for i := range l {
		l[i] = ioseg.Segment{Offset: int64(i) * 16384, Length: 1024}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeRegions(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMessageRoundTrip(b *testing.B) {
	body := make([]byte, 4096)
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMessage(&buf, Message{Header: Header{Type: TWrite}, Body: body}); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// The bodies of a lookup or create round trip are sized once from
// their fields: each Marshal is one allocation, exactly as long as the
// encoding.
func TestLookupMarshalAllocatesOnce(t *testing.T) {
	info := FileInfo{Handle: 9, Size: 1 << 20, Striping: striping.Config{PCount: 4, StripeSize: 16384}, CreateTok: 3,
		IODAddrs: []string{"127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103", "127.0.0.1:7104"}}
	name := NameReq{Name: "meta/file-000123"}
	create := CreateReq{Name: "meta/file-000123", Striping: striping.Config{PCount: 4, StripeSize: 16384}, Token: 77}
	env := MetaEnvelope{Epoch: 5, Inner: TOpen, Body: name.Marshal()}
	for _, tc := range []struct {
		name    string
		marshal func() []byte
	}{
		{"FileInfo", info.Marshal},
		{"NameReq", name.Marshal},
		{"CreateReq", create.Marshal},
		{"MetaEnvelope", env.Marshal},
	} {
		if b := tc.marshal(); len(b) != cap(b) {
			t.Errorf("%s: encoded %d bytes into a %d-byte buffer", tc.name, len(b), cap(b))
		}
		if allocs := testing.AllocsPerRun(100, func() { tc.marshal() }); allocs != 1 {
			t.Errorf("%s: %.1f allocations per Marshal, want 1", tc.name, allocs)
		}
	}
}
