package iod_test

import (
	"encoding/binary"
	"testing"
	"time"

	"pvfs/internal/iod"
	"pvfs/internal/ioseg"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/store"
	"pvfs/internal/wire"
)

// startIOD returns a daemon on a memory store and a raw connection.
func startIOD(t *testing.T) (*iod.Server, *pvfsnet.Conn) {
	t.Helper()
	srv, err := iod.Listen("127.0.0.1:0", store.NewMem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := pvfsnet.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func call(t *testing.T, c *pvfsnet.Conn, typ wire.MsgType, handle uint64, body []byte) wire.Message {
	t.Helper()
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: typ, Handle: handle}, Body: body})
	if err != nil {
		t.Fatalf("%v: %v", typ, err)
	}
	return resp
}

func TestContigReadWrite(t *testing.T) {
	_, c := startIOD(t)
	w := wire.WriteReq{Offset: 100, Data: []byte("stripe data")}
	resp := call(t, c, wire.TWrite, 7, w.Marshal())
	var wr wire.WrittenResp
	if err := wr.Unmarshal(resp.Body); err != nil || wr.N != 11 {
		t.Fatalf("written = %+v (%v)", wr, err)
	}
	r := wire.ReadReq{Offset: 100, Length: 11}
	resp = call(t, c, wire.TRead, 7, r.Marshal())
	if string(resp.Body) != "stripe data" {
		t.Fatalf("read back %q", resp.Body)
	}
}

func TestListRoundTrip(t *testing.T) {
	srv, c := startIOD(t)
	regions := ioseg.List{{Offset: 0, Length: 3}, {Offset: 10, Length: 4}}
	body, err := (&wire.ListReq{Regions: regions, Data: []byte("abcdefg")}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	call(t, c, wire.TWriteList, 9, body)

	rbody, err := (&wire.ListReq{Regions: regions}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp := call(t, c, wire.TReadList, 9, rbody)
	if string(resp.Body) != "abcdefg" {
		t.Fatalf("list read = %q", resp.Body)
	}
	st := srv.Stats()
	if st.Requests != 2 || st.ListRequests != 2 || st.Regions != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TrailingBytes != 2*int64(wire.TrailingDataSize(2)) {
		t.Fatalf("trailing bytes = %d", st.TrailingBytes)
	}
}

func TestWriteListLengthMismatchRejected(t *testing.T) {
	_, c := startIOD(t)
	regions := ioseg.List{{Offset: 0, Length: 10}}
	body, err := (&wire.ListReq{Regions: regions, Data: []byte("short")}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TWriteList, Handle: 1}, Body: body})
	if err == nil {
		t.Fatal("mismatched list write accepted")
	}
	if resp.Status != wire.StatusInvalid {
		t.Fatalf("status = %v", resp.Status)
	}
}

// TestRetiredStridedTypesRejected pins the reserved wire values 11 and
// 12, once the strided request family: a request carrying either —
// here with a body of the old descriptor's size — is answered
// StatusInvalid by the default case, not a recovered panic, the daemon
// keeps serving, and every request body goes back to the pool.
func TestRetiredStridedTypesRejected(t *testing.T) {
	_, c := startIOD(t)
	gets0, puts0 := wire.BufStats()
	body := make([]byte, 60)
	for _, typ := range []wire.MsgType{11, 12} {
		resp, err := c.Call(wire.Message{Header: wire.Header{Type: typ, Handle: 3}, Body: body})
		if err == nil {
			t.Fatalf("retired type %d accepted", typ)
		}
		if resp.Status != wire.StatusInvalid {
			t.Fatalf("retired type %d: status = %v, want invalid", typ, resp.Status)
		}
		resp.Release()
	}
	call(t, c, wire.TPing, 0, nil)
	deadline := time.Now().Add(2 * time.Second)
	for {
		gets, puts := wire.BufStats()
		if gets-gets0 == puts-puts0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled buffers leaked: %d gets vs %d puts", gets-gets0, puts-puts0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStatTruncateRemove(t *testing.T) {
	_, c := startIOD(t)
	call(t, c, wire.TWrite, 5, (&wire.WriteReq{Offset: 0, Data: make([]byte, 500)}).Marshal())
	resp := call(t, c, wire.TStat, 5, nil)
	var sz wire.SizeResp
	if err := sz.Unmarshal(resp.Body); err != nil || sz.Size != 500 {
		t.Fatalf("size = %+v", sz)
	}
	call(t, c, wire.TTruncate, 5, (&wire.TruncateReq{Size: 100}).Marshal())
	resp = call(t, c, wire.TStat, 5, nil)
	if err := sz.Unmarshal(resp.Body); err != nil || sz.Size != 100 {
		t.Fatalf("size after truncate = %+v", sz)
	}
	call(t, c, wire.TRemove, 5, nil)
	resp = call(t, c, wire.TStat, 5, nil)
	if err := sz.Unmarshal(resp.Body); err != nil || sz.Size != 0 {
		t.Fatalf("size after remove = %+v", sz)
	}
}

func TestServerStatsEndpoint(t *testing.T) {
	_, c := startIOD(t)
	call(t, c, wire.TWrite, 1, (&wire.WriteReq{Offset: 0, Data: []byte{1, 2, 3}}).Marshal())
	resp := call(t, c, wire.TServerStats, 0, nil)
	var st wire.ServerStats
	if err := st.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.BytesWritten != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	_, c := startIOD(t)
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TCreate}})
	if err == nil {
		t.Fatal("iod accepted a manager request type")
	}
	if resp.Status != wire.StatusInvalid {
		t.Fatalf("status = %v", resp.Status)
	}
}

func TestMalformedBodiesRejected(t *testing.T) {
	_, c := startIOD(t)
	for _, typ := range []wire.MsgType{wire.TRead, wire.TWrite, wire.TReadList, wire.TWriteList, wire.TReadDatatype, wire.TTruncate} {
		resp, err := c.Call(wire.Message{Header: wire.Header{Type: typ}, Body: []byte{1, 2}})
		if err == nil {
			t.Errorf("%v: malformed body accepted", typ)
		}
		if resp.Status == wire.StatusOK {
			t.Errorf("%v: status OK for malformed body", typ)
		}
	}
}

// rawRegions hand-encodes list I/O trailing data, bypassing the client
// codec's validation so hostile geometry reaches the daemon.
func rawRegions(pairs ...int64) []byte {
	buf := make([]byte, 4+8*len(pairs))
	binary.BigEndian.PutUint32(buf, uint32(len(pairs)/2))
	for i, v := range pairs {
		binary.BigEndian.PutUint64(buf[4+8*i:], uint64(v))
	}
	return buf
}

// TestHostileRegionGeometryRejected is the regression test for the
// remote-DoS panic: a read-list request whose region lengths are each
// individually valid but sum past MaxInt64 used to wrap the total
// negative, slip past the body-size check, and panic the daemon
// slicing a nil buffer. It must be answered StatusInvalid with the
// daemon still serving.
func TestHostileRegionGeometryRejected(t *testing.T) {
	_, c := startIOD(t)
	hostile := [][]byte{
		// Four regions of 2^61 bytes: sum = 2^63, wraps negative.
		rawRegions(0, 1<<61, 0, 1<<61, 0, 1<<61, 0, 1<<61),
		// Offset+length overflow inside one region.
		rawRegions((1<<63)-2, 4),
		// Negative region length.
		rawRegions(0, -5),
		// Negative region offset.
		rawRegions(-10, 5),
	}
	for i, trailer := range hostile {
		for _, typ := range []wire.MsgType{wire.TReadList, wire.TWriteList} {
			resp, err := c.Call(wire.Message{Header: wire.Header{Type: typ, Handle: 1}, Body: trailer})
			if err == nil {
				t.Fatalf("hostile geometry %d accepted by %v", i, typ)
			}
			if resp.Status != wire.StatusInvalid {
				t.Fatalf("hostile geometry %d via %v: status = %v, want invalid", i, typ, resp.Status)
			}
		}
	}
	// The daemon must still be alive and serving.
	call(t, c, wire.TPing, 0, nil)
	w := wire.WriteReq{Offset: 0, Data: []byte("still up")}
	call(t, c, wire.TWrite, 1, w.Marshal())
}

func TestNegativeOffsetsRejected(t *testing.T) {
	_, c := startIOD(t)
	neg := wire.ReadReq{Offset: -4, Length: 4}
	if resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TRead}, Body: neg.Marshal()}); err == nil || resp.Status != wire.StatusInvalid {
		t.Fatalf("negative read offset: %v / %v", resp.Status, err)
	}
	w := wire.WriteReq{Offset: -4, Data: []byte("xx")}
	if resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TWrite}, Body: w.Marshal()}); err == nil || resp.Status != wire.StatusInvalid {
		t.Fatalf("negative write offset: %v / %v", resp.Status, err)
	}
	tr := wire.TruncateReq{Size: -1}
	if resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TTruncate}, Body: tr.Marshal()}); err == nil || resp.Status != wire.StatusInvalid {
		t.Fatalf("negative truncate: %v / %v", resp.Status, err)
	}
	// Offset that overflows when summed with the write length.
	w2 := wire.WriteReq{Offset: (1 << 63) - 2, Data: []byte("xx")}
	if resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TWrite}, Body: w2.Marshal()}); err == nil || resp.Status == wire.StatusOK {
		t.Fatalf("overflowing write offset accepted: %v / %v", resp.Status, err)
	}
	call(t, c, wire.TPing, 0, nil)
}

// startCachedIOD returns a daemon whose store is a write-back cache
// over a Mem store the test can inspect, with the periodic flusher
// disabled so only TSync moves data down.
func startCachedIOD(t *testing.T) (*store.Mem, *pvfsnet.Conn) {
	t.Helper()
	inner := store.NewMem()
	cached := store.Cached(inner, store.CacheOptions{BlockSize: 4096, FlushInterval: -1})
	srv, err := iod.Listen("127.0.0.1:0", cached, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := pvfsnet.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return inner, c
}

// TestSyncFlushesCachedDaemon pins the TSync protocol contract: a
// cached daemon defers writes, TSync lands them on the backing store.
func TestSyncFlushesCachedDaemon(t *testing.T) {
	inner, c := startCachedIOD(t)
	w := wire.WriteReq{Offset: 0, Data: []byte("write-back")}
	call(t, c, wire.TWrite, 11, w.Marshal())
	if sz, _ := inner.Size(11); sz != 0 {
		t.Fatalf("write reached backing store before sync (size %d)", sz)
	}
	call(t, c, wire.TSync, 11, nil)
	p := make([]byte, 10)
	if _, err := inner.ReadAt(11, p, 0); err != nil {
		t.Fatal(err)
	}
	if string(p) != "write-back" {
		t.Fatalf("backing store after sync = %q", p)
	}
}

// TestSyncOnUncachedDaemonIsNoop: stores without a write-back layer
// acknowledge TSync immediately.
func TestSyncOnUncachedDaemonIsNoop(t *testing.T) {
	_, c := startIOD(t)
	call(t, c, wire.TSync, 5, nil)
}

// TestServerStatsCarryCacheCounters: the stats endpoint reports the
// cache's hit/miss/flush counters over the wire.
func TestServerStatsCarryCacheCounters(t *testing.T) {
	_, c := startCachedIOD(t)
	w := wire.WriteReq{Offset: 0, Data: make([]byte, 100)}
	call(t, c, wire.TWrite, 1, w.Marshal())
	r := wire.ReadReq{Offset: 0, Length: 100}
	call(t, c, wire.TRead, 1, r.Marshal())
	call(t, c, wire.TSync, 1, nil)
	resp := call(t, c, wire.TServerStats, 0, nil)
	var st wire.ServerStats
	if err := st.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	if st.CacheHits == 0 || st.CacheFlushes == 0 {
		t.Fatalf("cache counters missing from server stats: %+v", st)
	}
}

func TestNegativeReadLengthRejected(t *testing.T) {
	_, c := startIOD(t)
	r := wire.ReadReq{Offset: 0, Length: -5}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TRead}, Body: r.Marshal()})
	if err == nil {
		t.Fatal("negative read length accepted")
	}
	if resp.Status != wire.StatusInvalid {
		t.Fatalf("status = %v", resp.Status)
	}
}
